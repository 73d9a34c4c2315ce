// Package daq emulates the LabVIEW-based data acquisition of the MOST sites
// (paper §3.2, Fig. 10): sensor channels sampled against the live rig or
// simulation state, deposited as spool files on a (network) file system,
// and simultaneously fed to the NSDS streaming hub. A poller picks spool
// files up for upload to the repository — "a simple LabVIEW interface …
// periodically gathered data deposited by the DAQ in a network-mounted file
// system; NFMS and GridFTP were then used to upload it".
package daq

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"neesgrid/internal/nsds"
	"neesgrid/internal/telemetry"
)

// SensorKind labels the instrument type (metadata for NMDS).
type SensorKind string

// The instruments used at the MOST and Mini-MOST sites.
const (
	LVDT          SensorKind = "lvdt"          // position
	LoadCell      SensorKind = "load-cell"     // force
	StrainGauge   SensorKind = "strain-gauge"  // strain
	Accelerometer SensorKind = "accelerometer" // acceleration
)

// Channel is one sensor channel: a name, a source, and a noise model.
type Channel struct {
	// Name is the fully qualified channel name (e.g. "uiuc.lvdt1").
	Name string
	// Kind is the instrument type.
	Kind SensorKind
	// Units documents the reading units ("m", "N", ...).
	Units string
	// Read returns the current physical value.
	Read func() float64
	// Gain scales the physical value (sensor calibration); 0 means 1.
	Gain float64
	// NoiseStd adds Gaussian sensor noise.
	NoiseStd float64
}

// Reading is one sampled value.
type Reading struct {
	Channel string  `json:"channel"`
	Kind    string  `json:"kind"`
	Units   string  `json:"units"`
	Step    int     `json:"step"`
	T       float64 `json:"t"`
	Value   float64 `json:"value"`
}

// DAQ samples a set of channels.
type DAQ struct {
	Site string

	mu       sync.Mutex
	channels []Channel
	rng      *rand.Rand
	hub      *nsds.Hub
	spool    *Spool
	scans    int
}

// New builds a DAQ for a site; seed fixes the sensor noise.
func New(site string, seed int64) *DAQ {
	return &DAQ{Site: site, rng: rand.New(rand.NewSource(seed))}
}

// AddChannel registers a sensor channel.
func (d *DAQ) AddChannel(c Channel) error {
	if c.Name == "" || c.Read == nil {
		return fmt.Errorf("daq: channel needs a name and a source")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, existing := range d.channels {
		if existing.Name == c.Name {
			return fmt.Errorf("daq: duplicate channel %q", c.Name)
		}
	}
	d.channels = append(d.channels, c)
	return nil
}

// Channels lists registered channel names.
func (d *DAQ) Channels() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, len(d.channels))
	for i, c := range d.channels {
		names[i] = c.Name
	}
	return names
}

// AttachHub streams every scan to an NSDS hub.
func (d *DAQ) AttachHub(h *nsds.Hub) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hub = h
}

// AttachSpool deposits every scan into a spool directory.
func (d *DAQ) AttachSpool(s *Spool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spool = s
}

// Scan samples every channel at experiment time t / step and routes the
// readings to the attached hub and spool.
func (d *DAQ) Scan(step int, t float64) ([]Reading, error) {
	return d.ScanContext(context.Background(), step, t)
}

// ScanContext is Scan with trace propagation: the hub publish of one scan
// is a single batch carrying ctx, so when the hub is traced and ctx holds
// the coordinator's step span, the DAQ readback shows up as that step's
// "nsds.publish" child in the merged timeline.
func (d *DAQ) ScanContext(ctx context.Context, step int, t float64) ([]Reading, error) {
	d.mu.Lock()
	readings := make([]Reading, len(d.channels))
	for i, c := range d.channels {
		gain := c.Gain
		if gain == 0 {
			gain = 1
		}
		v := c.Read()*gain + d.rng.NormFloat64()*c.NoiseStd
		readings[i] = Reading{
			Channel: c.Name, Kind: string(c.Kind), Units: c.Units,
			Step: step, T: t, Value: v,
		}
	}
	hub, spool := d.hub, d.spool
	d.scans++
	d.mu.Unlock()

	if hub != nil {
		// One batch per scan: consecutive sequence numbers for the whole
		// instant, one lock acquisition, and one trace span.
		batch := make([]nsds.Sample, len(readings))
		for i, r := range readings {
			batch[i] = nsds.Sample{Channel: r.Channel, T: r.T, Value: r.Value}
		}
		hub.PublishBatchContext(ctx, batch)
	}
	if spool != nil {
		if err := spool.Append(readings); err != nil {
			return readings, fmt.Errorf("daq: spool: %w", err)
		}
	}
	return readings, nil
}

// Scans returns how many scans have run.
func (d *DAQ) Scans() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scans
}

// ---------------------------------------------------------------------------
// Spool: LabVIEW-style file deposit + poller
// ---------------------------------------------------------------------------

// Spool accumulates readings and deposits them as CSV blocks in a
// directory, rotating every BlockSize scans.
type Spool struct {
	Dir string
	// BlockSize is the number of scan batches per deposited file.
	BlockSize int

	tel atomic.Pointer[spoolCounters]

	mu      sync.Mutex
	pending []Reading
	batches int
	seq     int
	buf     []byte // the block being formatted; kept from one flush to the next
	// deposited holds the summary of every block this Spool wrote and no poll
	// has uploaded yet, by file name.
	deposited map[string]BlockSummary
}

// BlockSummary is what the repository's metadata says about one block.
type BlockSummary struct {
	// Channels are the distinct channel names, in order of first appearance.
	Channels []string
	// FirstStep and LastStep are the lowest and the highest step of any
	// reading; both are -1 for a block without readings.
	FirstStep, LastStep int
	// Parsed reports that the block was read back from its file to learn the
	// rest: some earlier Spool on the directory deposited it, not this one.
	Parsed bool
}

// Summarize reduces the readings of one block to its summary. It is the one
// reduction behind every summary, whether the readings are a Spool's pending
// ones or came from ReadBlock.
func Summarize(readings []Reading) BlockSummary {
	sum := BlockSummary{Channels: []string{}, FirstStep: -1, LastStep: -1}
	seen := make(map[string]struct{})
	for i, r := range readings {
		if i == 0 || r.Step < sum.FirstStep {
			sum.FirstStep = r.Step
		}
		if i == 0 || r.Step > sum.LastStep {
			sum.LastStep = r.Step
		}
		if _, dup := seen[r.Channel]; dup {
			continue
		}
		seen[r.Channel] = struct{}{}
		sum.Channels = append(sum.Channels, r.Channel)
	}
	return sum
}

// spoolCounters are the spool's series in a shared registry.
type spoolCounters struct {
	blocks, bytes *telemetry.Counter
	flushS        *telemetry.Histogram
}

// UseTelemetry exports the spool's deposits into reg: daq.spool.blocks and
// daq.spool.bytes (blocks deposited and their size) and the histogram
// daq.spool.flush_s (formatting, writing and renaming one block). Spools
// sharing a registry add into the same series. A nil registry disables the
// export.
func (s *Spool) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel.Store(nil)
		return
	}
	s.tel.Store(&spoolCounters{
		blocks: reg.Counter("daq.spool.blocks"),
		bytes:  reg.Counter("daq.spool.bytes"),
		flushS: reg.Histogram("daq.spool.flush_s"),
	})
}

// NewSpool creates (if needed) the spool directory. Blocks an earlier Spool
// left there stay for the next poll and numbering resumes after the highest of
// them; a half-written block (*.tmp) is removed, its readings having gone with
// the process that held them.
func NewSpool(dir string, blockSize int) (*Spool, error) {
	if blockSize < 1 {
		blockSize = 100
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daq: spool dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("daq: spool dir: %w", err)
	}
	s := &Spool{Dir: dir, BlockSize: blockSize, deposited: make(map[string]BlockSummary)}
	for _, e := range entries {
		if stale, isTmp := strings.CutSuffix(e.Name(), ".tmp"); isTmp {
			if _, ours := blockSeq(stale); ours {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return nil, fmt.Errorf("daq: spool dir: %w", err)
				}
			}
		} else if seq, ok := blockSeq(e.Name()); ok && seq >= s.seq {
			s.seq = seq + 1
		}
	}
	return s, nil
}

func blockName(seq int) string { return fmt.Sprintf("block-%06d.csv", seq) }

// blockSeq is the inverse of blockName.
func blockSeq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "block-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ".csv"); !ok {
		return 0, false
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil && seq >= 0
}

// Append adds one scan batch, flushing a file when the block fills.
func (s *Spool) Append(batch []Reading) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, batch...)
	s.batches++
	if s.batches >= s.BlockSize {
		return s.flushLocked()
	}
	return nil
}

// Flush deposits any pending readings immediately.
func (s *Spool) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	return s.flushLocked()
}

// blockColumns is the first line of every block.
const blockColumns = "channel,kind,units,step,t,value\n"

// flushLocked deposits the pending readings as the next block: formatted
// once, into the buffer the Spool keeps, and written with one write.
func (s *Spool) flushLocked() error {
	start := time.Now()
	buf := append(s.buf[:0], blockColumns...)
	for i := range s.pending {
		r := &s.pending[i]
		buf = appendCSVField(buf, r.Channel)
		buf = append(buf, ',')
		buf = appendCSVField(buf, r.Kind)
		buf = append(buf, ',')
		buf = appendCSVField(buf, r.Units)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Step), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r.T, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r.Value, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	s.buf = buf
	block := blockName(s.seq)
	name := filepath.Join(s.Dir, block)
	tmp := name + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o666); err != nil {
		return err
	}
	// Atomic rename so the poller never sees a half-written block.
	if err := os.Rename(tmp, name); err != nil {
		return err
	}
	s.deposited[block] = Summarize(s.pending)
	s.pending = s.pending[:0]
	s.batches = 0
	s.seq++
	if t := s.tel.Load(); t != nil {
		t.blocks.Inc()
		t.bytes.Add(int64(len(buf)))
		t.flushS.ObserveDuration(time.Since(start))
	}
	return nil
}

// appendCSVField appends one field as encoding/csv's Writer writes it: bare
// unless it holds a comma, a quote, a CR or LF, starts with a space, or is
// `\.`; quoted with its quotes doubled otherwise.
func appendCSVField(buf []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, field[i])
	}
	return append(buf, '"')
}

func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	first, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(first)
}

// PollOnce finds deposited blocks, hands each with its summary to upload
// (oldest first), and removes blocks that uploaded successfully. It returns
// the uploaded file names. The summary of a block this Spool deposited is the
// one it took from the readings in memory; a block found in the directory that
// it did not deposit is parsed (ReadBlock) and summarised the same way.
func (s *Spool) PollOnce(upload func(path string, sum BlockSummary) error) ([]string, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("daq: poll: %w", err)
	}
	var blocks []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		blocks = append(blocks, e.Name())
	}
	sort.Strings(blocks)
	var uploaded []string
	for _, b := range blocks {
		path := filepath.Join(s.Dir, b)
		s.mu.Lock()
		sum, known := s.deposited[b]
		s.mu.Unlock()
		if !known {
			readings, err := ReadBlock(path)
			if err != nil {
				return uploaded, fmt.Errorf("daq: summarise %s: %w", b, err)
			}
			sum = Summarize(readings)
			sum.Parsed = true
		}
		if err := upload(path, sum); err != nil {
			return uploaded, fmt.Errorf("daq: upload %s: %w", b, err)
		}
		if err := os.Remove(path); err != nil {
			return uploaded, fmt.Errorf("daq: remove %s: %w", b, err)
		}
		s.mu.Lock()
		delete(s.deposited, b)
		s.mu.Unlock()
		uploaded = append(uploaded, b)
	}
	return uploaded, nil
}

// ReadBlock parses a deposited CSV block.
func ReadBlock(path string) ([]Reading, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	if _, err := r.Read(); err != nil { // the column names
		if err == io.EOF {
			return nil, fmt.Errorf("daq: empty block %s", path)
		}
		return nil, err
	}
	var out []Reading
	if info, err := f.Stat(); err == nil {
		out = make([]Reading, 0, info.Size()/blockRowBytes)
	}
	for {
		row, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(row) != 6 {
			return nil, fmt.Errorf("daq: malformed row in %s", path)
		}
		step, err := strconv.Atoi(row[3])
		if err != nil {
			return nil, err
		}
		t, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return nil, err
		}
		out = append(out, Reading{
			Channel: row[0], Kind: row[1], Units: row[2],
			Step: step, T: t, Value: v,
		})
	}
}

// blockRowBytes is a low estimate of one CSV row of a block (a spooled row
// is about 50 bytes), from which ReadBlock sizes its result: erring low
// leaves a spare tail, where erring high would regrow and copy the slice.
const blockRowBytes = 40
