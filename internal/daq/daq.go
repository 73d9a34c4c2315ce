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
	"sync"

	"neesgrid/internal/nsds"
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

	mu      sync.Mutex
	pending []Reading
	batches int
	seq     int
}

// NewSpool creates (if needed) the spool directory.
func NewSpool(dir string, blockSize int) (*Spool, error) {
	if blockSize < 1 {
		blockSize = 100
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daq: spool dir: %w", err)
	}
	return &Spool{Dir: dir, BlockSize: blockSize}, nil
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

func (s *Spool) flushLocked() error {
	name := filepath.Join(s.Dir, fmt.Sprintf("block-%06d.csv", s.seq))
	tmp := name + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"channel", "kind", "units", "step", "t", "value"}); err != nil {
		_ = f.Close()
		return err
	}
	for _, r := range s.pending {
		if err := w.Write([]string{
			r.Channel, r.Kind, r.Units,
			strconv.Itoa(r.Step),
			strconv.FormatFloat(r.T, 'g', -1, 64),
			strconv.FormatFloat(r.Value, 'g', -1, 64),
		}); err != nil {
			_ = f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Atomic rename so the poller never sees a half-written block.
	if err := os.Rename(tmp, name); err != nil {
		return err
	}
	s.pending = s.pending[:0]
	s.batches = 0
	s.seq++
	return nil
}

// PollOnce finds deposited blocks, hands each to upload (oldest first), and
// removes blocks that uploaded successfully. It returns the uploaded file
// names.
func (s *Spool) PollOnce(upload func(path string) error) ([]string, error) {
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
		if err := upload(path); err != nil {
			return uploaded, fmt.Errorf("daq: upload %s: %w", b, err)
		}
		if err := os.Remove(path); err != nil {
			return uploaded, fmt.Errorf("daq: remove %s: %w", b, err)
		}
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
