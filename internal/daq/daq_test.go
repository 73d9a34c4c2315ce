package daq

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/nsds"
)

func TestScanReadsChannels(t *testing.T) {
	d := New("uiuc", 1)
	pos := 0.02
	if err := d.AddChannel(Channel{Name: "uiuc.lvdt1", Kind: LVDT, Units: "m", Read: func() float64 { return pos }}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddChannel(Channel{Name: "uiuc.load1", Kind: LoadCell, Units: "N", Read: func() float64 { return 20 }, Gain: 2}); err != nil {
		t.Fatal(err)
	}
	rs, err := d.Scan(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d readings", len(rs))
	}
	if rs[0].Value != 0.02 {
		t.Fatalf("lvdt = %g", rs[0].Value)
	}
	if rs[1].Value != 40 { // gain applied
		t.Fatalf("load = %g", rs[1].Value)
	}
	if d.Scans() != 1 {
		t.Fatal("scan counter")
	}
	if got := d.Channels(); len(got) != 2 || got[0] != "uiuc.lvdt1" {
		t.Fatalf("channels = %v", got)
	}
}

func TestChannelValidation(t *testing.T) {
	d := New("x", 1)
	if err := d.AddChannel(Channel{Name: "", Read: func() float64 { return 0 }}); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := d.AddChannel(Channel{Name: "a"}); err == nil {
		t.Fatal("nil source should fail")
	}
	_ = d.AddChannel(Channel{Name: "a", Read: func() float64 { return 0 }})
	if err := d.AddChannel(Channel{Name: "a", Read: func() float64 { return 0 }}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	build := func() float64 {
		d := New("x", 42)
		_ = d.AddChannel(Channel{Name: "c", Read: func() float64 { return 1 }, NoiseStd: 0.1})
		rs, _ := d.Scan(0, 0)
		return rs[0].Value
	}
	if build() != build() {
		t.Fatal("noise not deterministic across equal seeds")
	}
	if build() == 1.0 {
		t.Fatal("noise absent")
	}
}

func TestScanPublishesToHub(t *testing.T) {
	d := New("uiuc", 1)
	_ = d.AddChannel(Channel{Name: "uiuc.lvdt1", Read: func() float64 { return 5 }})
	h := nsds.NewHub()
	defer h.Close()
	sub, _ := h.SubscribeBatches(8, false)
	d.AttachHub(h)
	if _, err := d.Scan(3, 0.03); err != nil {
		t.Fatal(err)
	}
	s := (<-sub.Batches()).Samples[0]
	if s.Channel != "uiuc.lvdt1" || s.Value != 5 || s.T != 0.03 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestSpoolRotationAndPoll(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpool(dir, 2) // rotate every 2 scans
	if err != nil {
		t.Fatal(err)
	}
	d := New("uiuc", 1)
	_ = d.AddChannel(Channel{Name: "c1", Read: func() float64 { return 1 }})
	d.AttachSpool(sp)
	for i := 0; i < 5; i++ {
		if _, err := d.Scan(i, float64(i)*0.01); err != nil {
			t.Fatal(err)
		}
	}
	// 5 scans at block size 2 -> 2 full blocks deposited, 1 pending.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("%d blocks deposited, want 2", len(entries))
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 3 {
		t.Fatalf("%d blocks after flush, want 3", len(entries))
	}

	var uploaded [][]Reading
	names, err := sp.PollOnce(func(path string, _ BlockSummary) error {
		rs, err := ReadBlock(path)
		if err != nil {
			return err
		}
		uploaded = append(uploaded, rs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("uploaded %d blocks", len(names))
	}
	total := 0
	for _, rs := range uploaded {
		total += len(rs)
	}
	if total != 5 {
		t.Fatalf("uploaded %d readings, want 5", total)
	}
	// Spool drained.
	entries, _ = os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatal("uploaded blocks not removed")
	}
}

func TestPollStopsOnUploadFailure(t *testing.T) {
	dir := t.TempDir()
	sp, _ := NewSpool(dir, 1)
	d := New("x", 1)
	_ = d.AddChannel(Channel{Name: "c", Read: func() float64 { return 0 }})
	d.AttachSpool(sp)
	_, _ = d.Scan(0, 0)
	_, _ = d.Scan(1, 0.01)

	calls := 0
	_, err := sp.PollOnce(func(string, BlockSummary) error {
		calls++
		return os.ErrPermission
	})
	if err == nil {
		t.Fatal("upload failure should surface")
	}
	if calls != 1 {
		t.Fatalf("poller kept going after failure: %d calls", calls)
	}
	// Files remain for the next poll.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("%d blocks remain, want 2", len(entries))
	}
}

func TestReadBlockRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sp, _ := NewSpool(dir, 1)
	in := []Reading{
		{Channel: "c1", Kind: "lvdt", Units: "m", Step: 7, T: 0.07, Value: 1.25},
		{Channel: "c2", Kind: "load-cell", Units: "N", Step: 7, T: 0.07, Value: -33},
	}
	if err := sp.Append(in); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatal("block not deposited")
	}
	out, err := ReadBlock(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestReadBlockErrors(t *testing.T) {
	if _, err := ReadBlock(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing block should fail")
	}
	const names = "channel,kind,units,step,t,value\n"
	for _, tc := range []struct {
		name, content, want string // want: part of the error; "" = parses
		rows                int
	}{
		{"malformed step", names + "a,b,c,notanint,0,0\n", "notanint", 0},
		{"malformed time", names + "a,b,c,1,soon,0\n", "soon", 0},
		{"malformed value", names + "a,b,c,1,0,big\n", "big", 0},
		{"empty file", "", "empty block", 0},
		{"five columns throughout", "channel,kind,units,step,t\na,b,c,1,0\n", "malformed row", 0},
		{"a short row", names + "a,b,c,1,0\n", "wrong number of fields", 0},
		{"a bare quote", names + "a,b,c,1,0,0\na\"b,c,d,1,0,0\n", "bare \"", 0},
		{"a good row before a bad one", names + "a,b,c,1,0,0\na,b,c,x,0,0\n", "\"x\"", 0},
		{"column names only", names, "", 0},
		{"two rows", names + "a,b,c,1,0.5,2\nd,e,f,2,1.5,-3\n", "", 2},
	} {
		path := filepath.Join(t.TempDir(), "block.csv")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := ReadBlock(path)
		switch {
		case tc.want == "" && (err != nil || out == nil || len(out) != tc.rows):
			t.Errorf("%s: %d readings (nil %v), %v; want %d", tc.name, len(out), out == nil, err, tc.rows)
		case tc.want != "" && (err == nil || out != nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %d readings, error %v; want none and an error naming %q", tc.name, len(out), err, tc.want)
		}
	}
}

func TestSpoolFlushEmpty(t *testing.T) {
	sp, _ := NewSpool(t.TempDir(), 10)
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestGainDefaultsAndMath(t *testing.T) {
	d := New("x", 1)
	_ = d.AddChannel(Channel{Name: "c", Read: func() float64 { return math.Pi }})
	rs, _ := d.Scan(0, 0)
	if rs[0].Value != math.Pi {
		t.Fatalf("unit gain broken: %g", rs[0].Value)
	}
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

// Scans returns how many scans have run.
func (d *DAQ) Scans() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scans
}
