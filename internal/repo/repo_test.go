package repo

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"neesgrid/internal/daq"
	"neesgrid/internal/gridftp"
	"neesgrid/internal/nfms"
	"neesgrid/internal/telemetry"
)

const owner = "/O=NEES/CN=repo"
const alice = "/O=NEES/CN=alice"

func gridftpServer(t *testing.T) string {
	t.Helper()
	srv, err := gridftp.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

func TestNewInstallsSchemas(t *testing.T) {
	r, err := New(owner)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{SensorDataSchema, ExperimentSchema} {
		if _, err := r.Meta.Get(id); err != nil {
			t.Fatalf("schema %s missing: %v", id, err)
		}
	}
}

func TestDescribeExperimentValidated(t *testing.T) {
	r, _ := New(owner)
	if _, err := r.DescribeExperiment(alice, "exp:most", map[string]any{
		"name":        "MOST",
		"description": "Multi-site Online Simulation Test",
		"sites":       []string{"uiuc", "ncsa", "cu"},
	}); err != nil {
		t.Fatal(err)
	}
	// Missing required "name".
	if _, err := r.DescribeExperiment(alice, "exp:bad", map[string]any{
		"description": "no name",
	}); err == nil {
		t.Fatal("schema violation accepted")
	}
}

func TestIngestFileAndFetch(t *testing.T) {
	addr := gridftpServer(t)
	r, _ := New(owner)
	src := filepath.Join(t.TempDir(), "block.csv")
	content := []byte("channel,value\nuiuc.lvdt1,0.01\n")
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}
	obj, err := r.IngestFile(alice, "most", "uiuc", "most/uiuc/block.csv", src,
		nfms.Replica{Transport: "gridftp", Addr: addr, Path: "most/uiuc/block.csv"},
		map[string]any{"channels": []string{"uiuc.lvdt1"}, "first_step": 0, "last_step": 0})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Schema != SensorDataSchema {
		t.Fatalf("metadata schema = %q", obj.Schema)
	}
	var body map[string]any
	_ = json.Unmarshal(obj.Body, &body)
	if body["site"] != "uiuc" || body["logical"] != "most/uiuc/block.csv" {
		t.Fatalf("metadata = %v", body)
	}
	dst := filepath.Join(t.TempDir(), "back.csv")
	if err := r.Fetch("most/uiuc/block.csv", dst); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content differs")
	}
}

func TestIngestorIncrementalArchival(t *testing.T) {
	// E9: the §3.2 path — DAQ deposits spool blocks, the ingestion tool
	// uploads them during the run, metadata lands alongside.
	addr := gridftpServer(t)
	r, _ := New(owner)
	spoolDir := t.TempDir()
	spool, err := daq.NewSpool(spoolDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := daq.New("uiuc", 1)
	pos := 0.0
	_ = d.AddChannel(daq.Channel{Name: "uiuc.lvdt1", Kind: daq.LVDT, Units: "m", Read: func() float64 { return pos }})
	d.AttachSpool(spool)

	ing := &Ingestor{
		Repo: r, Spool: spool, Owner: alice,
		Experiment: "most", Site: "uiuc",
		Replica: func(block string) nfms.Replica {
			return nfms.Replica{Transport: "gridftp", Addr: addr, Path: "most/uiuc/" + block}
		},
	}

	// Simulate 10 steps with mid-run ingestion polls.
	for step := 0; step < 10; step++ {
		pos = float64(step) * 0.001
		if _, err := d.Scan(step, float64(step)*0.01); err != nil {
			t.Fatal(err)
		}
		if step == 5 {
			if _, err := ing.PollOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ing.Uploaded() == 0 {
		t.Fatal("mid-run ingestion uploaded nothing")
	}
	// Final drain.
	if err := spool.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.PollOnce(); err != nil {
		t.Fatal(err)
	}
	// 10 scans at block size 3 -> 4 blocks total.
	if ing.Uploaded() != 4 {
		t.Fatalf("uploaded %d blocks, want 4", ing.Uploaded())
	}
	// Every block has queryable metadata with step ranges.
	objs := r.Meta.List(SensorDataSchema)
	if len(objs) != 4 {
		t.Fatalf("%d metadata objects", len(objs))
	}
	var body map[string]any
	_ = json.Unmarshal(objs[0].Body, &body)
	if body["first_step"] == nil || body["channels"] == nil {
		t.Fatalf("metadata missing step range: %v", body)
	}
	// Files are downloadable.
	entries := r.Files.List()
	if len(entries) != 4 {
		t.Fatalf("%d catalog entries", len(entries))
	}
	dst := filepath.Join(t.TempDir(), "b.csv")
	if err := r.Fetch(entries[0].Logical, dst); err != nil {
		t.Fatal(err)
	}
	readings, err := daq.ReadBlock(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(readings) == 0 {
		t.Fatal("downloaded block empty")
	}
}

func TestIngestorRun(t *testing.T) {
	addr := gridftpServer(t)
	r, _ := New(owner)
	spool, _ := daq.NewSpool(t.TempDir(), 2)
	d := daq.New("cu", 1)
	_ = d.AddChannel(daq.Channel{Name: "cu.load1", Read: func() float64 { return 5 }})
	d.AttachSpool(spool)
	ing := &Ingestor{
		Repo: r, Spool: spool, Owner: alice, Experiment: "most", Site: "cu",
		Replica: func(block string) nfms.Replica {
			return nfms.Replica{Transport: "gridftp", Addr: addr, Path: "most/cu/" + block}
		},
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- ing.Run(5*time.Millisecond, stop) }()
	for i := 0; i < 5; i++ {
		_, _ = d.Scan(i, float64(i)*0.01)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ing.Uploaded() != 3 { // 5 scans, block 2 -> 2 full + 1 flushed
		t.Fatalf("uploaded %d", ing.Uploaded())
	}
}

func TestBridgeServesLogicalFiles(t *testing.T) {
	// The §2.3 GridFTP↔HTTPS bridge: browsers download experiment data by
	// logical name.
	addr := gridftpServer(t)
	r, _ := New(owner)
	src := filepath.Join(t.TempDir(), "d.bin")
	content := []byte("structure response data")
	_ = os.WriteFile(src, content, 0o644)
	if _, err := r.IngestFile(alice, "most", "ncsa", "most/ncsa/d.bin", src,
		nfms.Replica{Transport: "gridftp", Addr: addr, Path: "most/ncsa/d.bin"}, nil); err != nil {
		t.Fatal(err)
	}
	bridge := &Bridge{Repo: r, TempDir: t.TempDir()}
	ts := httptest.NewServer(bridge)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/files/most/ncsa/d.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, content) {
		t.Fatal("bridge content differs")
	}

	// Missing file -> 404.
	resp2, _ := ts.Client().Get(ts.URL + "/files/nope")
	_ = resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("missing file status %d", resp2.StatusCode)
	}
	// Bad path -> 400.
	resp3, _ := ts.Client().Get(ts.URL + "/wrong")
	_ = resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Fatalf("bad path status %d", resp3.StatusCode)
	}
}

// localIngestor is an ingestor over a spool of 50-scan blocks whose replicas
// are files in a local directory.
func localIngestor(t *testing.T, r *Repository, spoolDir string) (*daq.Spool, *Ingestor) {
	t.Helper()
	spool, err := daq.NewSpool(spoolDir, 50)
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir()
	return spool, &Ingestor{
		Repo: r, Spool: spool, Owner: alice, Experiment: "most", Site: "uiuc",
		Replica: func(block string) nfms.Replica {
			return nfms.Replica{Transport: "local", Path: filepath.Join(store, block)}
		},
	}
}

var blockChannels = func() (names [32]string) {
	for c := range names {
		names[c] = "uiuc.ch" + string(rune('A'+c))
	}
	return names
}()

// scanBlock appends 50 scans of 32 channels, steps from..from+49 in
// descending order so the first reading does not hold the first step.
func scanBlock(t *testing.T, spool *daq.Spool, from int) {
	t.Helper()
	batch := make([]daq.Reading, len(blockChannels))
	for s := 49; s >= 0; s-- {
		for c := range batch {
			batch[c] = daq.Reading{Channel: blockChannels[c], Kind: "lvdt", Units: "m",
				Step: from + s, T: float64(from+s) * 0.01, Value: float64(c) * 1e-3}
		}
		if err := spool.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestorUsesTheSpoolsSummary: blocks the ingestor's own spool deposited
// are catalogued without being parsed, a block left by an earlier spool is
// parsed once, and both get the metadata a reduction over the parsed file
// (what the ingestor did for every block before) gives.
func TestIngestorUsesTheSpoolsSummary(t *testing.T) {
	r, _ := New(owner)
	spoolDir := t.TempDir()
	earlier, _ := localIngestor(t, r, spoolDir)
	scanBlock(t, earlier, 100) // an orphan: block-000000.csv

	spool, ing := localIngestor(t, r, spoolDir)
	reg := telemetry.NewRegistry()
	ing.UseTelemetry(reg)
	scanBlock(t, spool, 150)
	scanBlock(t, spool, 200)

	// The metadata as the parse-everything ingestor derived it.
	want := make(map[string]map[string]any)
	blocks, _ := filepath.Glob(filepath.Join(spoolDir, "*.csv"))
	for _, path := range blocks {
		readings, err := daq.ReadBlock(path)
		if err != nil {
			t.Fatal(err)
		}
		channels := make([]any, 0, 4)
		seen := make(map[string]bool)
		firstStep, lastStep := -1, -1
		for _, rd := range readings {
			if !seen[rd.Channel] {
				seen[rd.Channel] = true
				channels = append(channels, rd.Channel)
			}
			if firstStep < 0 || rd.Step < firstStep {
				firstStep = rd.Step
			}
			if rd.Step > lastStep {
				lastStep = rd.Step
			}
		}
		logical := "most/uiuc/" + filepath.Base(path)
		want["data:"+logical] = map[string]any{"experiment": "most", "site": "uiuc", "logical": logical,
			"channels": channels, "first_step": float64(firstStep), "last_step": float64(lastStep)}
	}

	names, err := ing.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || ing.Uploaded() != 3 {
		t.Fatalf("ingested %v (%d uploaded), want three blocks", names, ing.Uploaded())
	}
	got := make(map[string]map[string]any)
	for _, obj := range r.Meta.List(SensorDataSchema) {
		var body map[string]any
		if err := json.Unmarshal(obj.Body, &body); err != nil {
			t.Fatal(err)
		}
		got[obj.ID] = body
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metadata\n%v\nwant\n%v", got, want)
	}
	if first := got["data:most/uiuc/block-000001.csv"]; first["first_step"] != 150.0 || first["last_step"] != 199.0 {
		t.Fatalf("step range of the second block: %v", first)
	}
	snap := reg.Snapshot()
	if snap.Counters["repo.ingest.blocks"] != 3 || snap.Counters["repo.ingest.orphan_blocks"] != 1 ||
		snap.Counters["repo.ingest.rollbacks"] != 0 || snap.Histograms["repo.ingest.block_s"].Count != 3 {
		t.Fatalf("series after one orphan and two deposited blocks: %v, %d timed", snap.Counters, snap.Histograms["repo.ingest.block_s"].Count)
	}
}

// TestPollOnceAllocations: archiving a deposited 50 × 32 block costs a fixed,
// small number of allocations (about 8,000 when the block was parsed back).
func TestPollOnceAllocations(t *testing.T) {
	r, _ := New(owner)
	spool, ing := localIngestor(t, r, t.TempDir())
	step := 0
	cycle := func() {
		scanBlock(t, spool, step)
		step += 50
		if names, err := ing.PollOnce(); err != nil || len(names) != 1 {
			t.Fatalf("poll: %v, %v", names, err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs > 300 {
		t.Fatalf("deposit and ingest of one block cost %.0f allocations, want at most 300", allocs)
	}
	t.Logf("%.0f allocations per block, deposit and ingest", allocs)
}

// TestIngestFileRollsBackWithoutMetadata: metadata the schema refuses must
// not leave the file registered, or the corrected retry is refused for ever.
func TestIngestFileRollsBackWithoutMetadata(t *testing.T) {
	r, _ := New(owner)
	src := filepath.Join(t.TempDir(), "block.csv")
	if err := os.WriteFile(src, []byte("channel,value\nc,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	replica := nfms.Replica{Transport: "local", Path: filepath.Join(t.TempDir(), "stored.csv")}
	const logical = "most/uiuc/block.csv"
	_, err := r.IngestFile(alice, "most", "uiuc", logical, src, replica, map[string]any{"first_step": "zero"})
	if err == nil {
		t.Fatal("metadata with a string for first_step accepted")
	}
	if _, err := r.Files.Resolve(logical); err == nil {
		t.Fatal("the file stayed registered without metadata")
	}
	if _, err := r.IngestFile(alice, "most", "uiuc", logical, src, replica, map[string]any{"first_step": 0}); err != nil {
		t.Fatalf("retry with valid metadata: %v", err)
	}
	if _, err := r.Meta.Get("data:" + logical); err != nil {
		t.Fatal(err)
	}
}

// TestIngestorCountsRollbacks: the same failure through the ingestor leaves
// the block in the spool and is counted.
func TestIngestorCountsRollbacks(t *testing.T) {
	r, _ := New(owner)
	spool, ing := localIngestor(t, r, t.TempDir())
	reg := telemetry.NewRegistry()
	ing.UseTelemetry(reg)
	if got, ok := reg.Snapshot().Counters["repo.ingest.rollbacks"]; !ok || got != 0 {
		t.Fatalf("repo.ingest.rollbacks not registered at zero: %v", reg.Snapshot().Counters)
	}
	// The metadata id of the first block is taken, so its Create is refused.
	if _, err := r.Meta.Create(alice, "data:most/uiuc/block-000000.csv", SensorDataSchema,
		map[string]any{"experiment": "most", "site": "uiuc", "logical": "elsewhere"}); err != nil {
		t.Fatal(err)
	}
	scanBlock(t, spool, 0)
	if _, err := ing.PollOnce(); err == nil {
		t.Fatal("ingest succeeded over existing metadata")
	}
	if got := reg.Snapshot().Counters["repo.ingest.rollbacks"]; got != 1 || ing.Uploaded() != 0 {
		t.Fatalf("%d rollbacks counted, %d uploaded; want 1 and 0", got, ing.Uploaded())
	}
	if _, err := r.Files.Resolve("most/uiuc/block-000000.csv"); err == nil {
		t.Fatal("the block stayed registered without metadata")
	}
	if left, _ := filepath.Glob(filepath.Join(spool.Dir, "*.csv")); len(left) != 1 {
		t.Fatalf("spool holds %v, want the block kept for a retry", left)
	}
}
