package daq

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"neesgrid/internal/telemetry"
)

// referenceBlock is the block format as the spool wrote it before it had a
// formatter of its own: encoding/csv with one FormatFloat string per cell.
func referenceBlock(t testing.TB, readings []Reading) []byte {
	t.Helper()
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	rows := [][]string{{"channel", "kind", "units", "step", "t", "value"}}
	for _, r := range readings {
		rows = append(rows, []string{r.Channel, r.Kind, r.Units, strconv.Itoa(r.Step),
			strconv.FormatFloat(r.T, 'g', -1, 64), strconv.FormatFloat(r.Value, 'g', -1, 64)})
	}
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// deposit writes readings as one block of a fresh spool and returns its path.
func deposit(t testing.TB, readings []Reading) string {
	t.Helper()
	sp, err := NewSpool(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Append(readings); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(sp.Dir, blockName(0))
}

// asRead is a reading as it comes back from a block: encoding/csv's reader
// drops the CR of a CR LF inside a quoted field, and a NaN keeps no payload.
func asRead(r Reading) Reading {
	r.Channel = strings.ReplaceAll(r.Channel, "\r\n", "\n")
	r.Kind = strings.ReplaceAll(r.Kind, "\r\n", "\n")
	r.Units = strings.ReplaceAll(r.Units, "\r\n", "\n")
	return r
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameReading(a, b Reading) bool {
	return a.Channel == b.Channel && a.Kind == b.Kind && a.Units == b.Units && a.Step == b.Step &&
		sameFloat(a.T, b.T) && sameFloat(a.Value, b.Value)
}

// goldenReadings are the readings of testdata/golden-block.csv, which the
// spool of the commit before the formatter wrote for them.
func goldenReadings() []Reading {
	return []Reading{
		{Channel: "uiuc.lvdt1", Kind: "lvdt", Units: "m", Step: 0, T: 0, Value: 0.0123456789012345678},
		{Channel: "uiuc.load1", Kind: "load-cell", Units: "N", Step: 0, T: 0, Value: -7.7e5},
		{Channel: "cu, east \"column\"", Kind: " strain-gauge", Units: "µε", Step: 1493, T: 14.93, Value: 1e-320},
		{Channel: "line\nbreak", Kind: "cr\rhere", Units: `\.`, Step: -2, T: 1e21, Value: math.Inf(-1)},
		{Channel: "", Kind: "", Units: "", Step: 1 << 40, T: math.Copysign(0, -1), Value: math.NaN()},
		{Channel: " nbsp-led", Kind: "accelerometer", Units: "m/s²", Step: 3, T: 0.1 + 0.2, Value: math.MaxFloat64},
		{Channel: "uiuc.lvdt1", Kind: "lvdt", Units: "m", Step: 2, T: 0.02, Value: math.SmallestNonzeroFloat64},
		{Channel: "trail\r", Kind: "x\r\ny", Units: "\"", Step: 7, T: 5e-324, Value: math.Inf(1)},
	}
}

func TestGoldenBlock(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-block.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(deposit(t, goldenReadings()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("deposited block differs from the golden one:\n%q\nwant\n%q", got, want)
	}
	if ref := referenceBlock(t, goldenReadings()); !bytes.Equal(ref, want) {
		t.Fatalf("the test's reference writer differs from the golden block:\n%q", ref)
	}
}

// FuzzSpoolBlockMatchesCSV holds the spool's formatter to encoding/csv's
// bytes for any strings and any float bits, and ReadBlock to returning what
// went in.
func FuzzSpoolBlockMatchesCSV(f *testing.F) {
	bits := math.Float64bits
	f.Add("uiuc.lvdt1", "lvdt", "m", 7, bits(0.07), bits(1.25))
	f.Add("a,b", `say "when"`, "x\r\ny", -1, bits(math.NaN()), bits(math.Inf(1)))
	f.Add(" leading", "\ttab", " nbsp", 0, bits(math.Inf(-1)), bits(math.Copysign(0, -1)))
	f.Add(`\.`, "", "\r", 1<<40, uint64(1), bits(math.SmallestNonzeroFloat64*3))
	f.Add("", "", "", 0, uint64(0), uint64(0))
	f.Add("\n", "\"", "trail\r", math.MinInt64, bits(math.MaxFloat64), uint64(0x7ff8000000000001))
	f.Add("\xff\xfe", "é", "µε", 1493, bits(1e21), bits(1e-7))
	f.Fuzz(func(t *testing.T, channel, kind, units string, step int, tBits, vBits uint64) {
		in := []Reading{
			{Channel: channel, Kind: kind, Units: units, Step: step,
				T: math.Float64frombits(tBits), Value: math.Float64frombits(vBits)},
			{Channel: units, Kind: channel, Units: kind, Step: -step,
				T: math.Float64frombits(vBits), Value: math.Float64frombits(tBits)},
		}
		path := deposit(t, in)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceBlock(t, in); !bytes.Equal(got, want) {
			t.Fatalf("block\n%q\nencoding/csv writes\n%q", got, want)
		}
		out, err := ReadBlock(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("%d readings back, want %d", len(out), len(in))
		}
		for i := range in {
			if !sameReading(out[i], asRead(in[i])) {
				t.Fatalf("reading %d came back %+v, went in %+v", i, out[i], in[i])
			}
		}
	})
}

// TestSummaryMatchesParse: the summary the upload callback gets is the one a
// parse of the file gives, whether the spool kept it from memory or had to
// parse the file itself.
func TestSummaryMatchesParse(t *testing.T) {
	dir := t.TempDir()
	first, err := NewSpool(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(step int, channels ...string) []Reading {
		var rs []Reading
		for _, c := range channels {
			rs = append(rs, Reading{Channel: c, Kind: "lvdt", Units: "m", Step: step, T: float64(step) / 100, Value: 1})
		}
		return rs
	}
	// An earlier incarnation's block, steps out of order and a channel that
	// joins late.
	for _, batch := range [][]Reading{scan(9, "b", "a"), scan(4, "b", "a", "c")} {
		if err := first.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := NewSpool(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Reading{scan(12, "a", "b"), scan(10, "a", "b"), scan(13, "b"), scan(14, "a", "a")} {
		if err := sp.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := []BlockSummary{
		{Channels: []string{"b", "a", "c"}, FirstStep: 4, LastStep: 9, Parsed: true},
		{Channels: []string{"a", "b"}, FirstStep: 10, LastStep: 12},
		{Channels: []string{"b", "a"}, FirstStep: 13, LastStep: 14},
	}
	var got []BlockSummary
	names, err := sp.PollOnce(func(path string, sum BlockSummary) error {
		readings, err := ReadBlock(path)
		if err != nil {
			return err
		}
		parsed := Summarize(readings)
		parsed.Parsed = sum.Parsed
		if !reflect.DeepEqual(sum, parsed) {
			t.Errorf("%s: handed %+v, a parse gives %+v", filepath.Base(path), sum, parsed)
		}
		got = append(got, sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summaries %+v of %v, want %+v", got, names, want)
	}
	if empty := Summarize(nil); empty.FirstStep != -1 || empty.LastStep != -1 || empty.Channels == nil || len(empty.Channels) != 0 {
		t.Fatalf("summary of no readings = %+v", empty)
	}
}

// TestRestartedSpoolKeepsEarlierBlocks: a second Spool on a directory that
// still holds blocks numbers its own after them and clears half-written ones.
func TestRestartedSpoolKeepsEarlierBlocks(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sp, err := NewSpool(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Append([]Reading{{Channel: "c", Step: i, Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for name, content := range map[string]string{
		"block-000007.csv.tmp": "channel,kind", // torn by a crash
		"notes.tmp":            "not the spool's",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := NewSpool(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Append([]Reading{{Channel: "c", Step: 2, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"block-000000.csv", "block-000001.csv", "block-000002.csv", "notes.tmp"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spool directory holds %v, want %v", names, want)
	}
	var steps []int
	if _, err := sp.PollOnce(func(path string, sum BlockSummary) error {
		steps = append(steps, sum.FirstStep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{0, 1, 2}) {
		t.Fatalf("blocks polled with first steps %v, want every incarnation's: [0 1 2]", steps)
	}
}

// benchBlock is the benchmark's block: 50 scans of 32 channels.
func benchBlock() [][]Reading {
	scans := make([][]Reading, 50)
	for s := range scans {
		for c := 0; c < 32; c++ {
			scans[s] = append(scans[s], Reading{
				Channel: fmt.Sprintf("uiuc.ch%02d", c), Kind: "lvdt", Units: "m",
				Step: s, T: float64(s) * 0.01, Value: 0.01 * math.Sin(float64(s)/40) * (1 + float64(c)/32),
			})
		}
	}
	return scans
}

// TestFlushAllocations: depositing a 50 × 32 block formats into the spool's
// own buffer, so what a flush allocates does not grow with the cells (3,200
// strings before).
func TestFlushAllocations(t *testing.T) {
	sp, err := NewSpool(t.TempDir(), 50)
	if err != nil {
		t.Fatal(err)
	}
	scans := benchBlock()
	block := func() {
		for _, batch := range scans {
			if err := sp.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	block() // sizes pending and the buffer
	allocs := testing.AllocsPerRun(10, block)
	if allocs > 40 {
		t.Fatalf("one 50x32 block costs %.0f allocations, want at most 40", allocs)
	}
	t.Logf("%.0f allocations per 50x32 block", allocs)
}

func TestSpoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	sp, _ := NewSpool(t.TempDir(), 1)
	sp.UseTelemetry(reg)
	snap := reg.Snapshot()
	if _, ok := snap.Counters["daq.spool.blocks"]; !ok {
		t.Fatalf("daq.spool.blocks not registered at zero: %v", snap.Counters)
	}
	for i := 0; i < 3; i++ {
		if err := sp.Append([]Reading{{Channel: "c", Step: i}}); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(filepath.Join(sp.Dir, blockName(0)))
	if err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap.Counters["daq.spool.blocks"] != 3 || snap.Counters["daq.spool.bytes"] != 3*info.Size() ||
		snap.Histograms["daq.spool.flush_s"].Count != 3 {
		t.Fatalf("after three blocks of %d bytes: %v, %d flushes timed", info.Size(), snap.Counters, snap.Histograms["daq.spool.flush_s"].Count)
	}
	sp.UseTelemetry(nil)
	if err := sp.Append([]Reading{{Channel: "c", Step: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["daq.spool.blocks"]; got != 3 {
		t.Fatalf("a detached spool still counts: %d", got)
	}
}
