package most

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"path/filepath"

	"neesgrid/internal/collab"
	"neesgrid/internal/core"
	"neesgrid/internal/daq"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/obs"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/structural"
)

// A remote observer monitors a running NTCP server "as a whole" through the
// most-recently-changed transaction SDE (paper §2.1) using the long-poll
// notification path, while the experiment runs.
func TestRemoteObserverWatchesTransactions(t *testing.T) {
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = 40
	exp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()

	uiuc, _ := exp.Site("uiuc")
	observerCred, err := exp.CA.Issue("/O=NEES/CN=observer", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The observer must be in the site's gridmap; reuse the coordinator
	// credential for a read-only watch instead.
	_ = observerCred
	og := ogsi.NewClient("http://"+uiuc.Addr, exp.Cred, exp.Trust)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var seen []string
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- og.WatchServiceData(ctx, "ntcp", "last-transaction", 500*time.Millisecond, func(sde ogsi.SDE) {
			var name string
			_ = json.Unmarshal(sde.Value, &name)
			mu.Lock()
			seen = append(seen, name)
			mu.Unlock()
		})
	}()

	res, err := exp.Run(context.Background())
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	// Allow the final notification to land, then stop the watch.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-watchDone; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("observer saw no transactions")
	}
	// Long-polling may coalesce bursts, and each transaction updates the
	// SDE at propose and again at execute — but what is seen must be uiuc
	// step transactions in non-decreasing step order.
	lastStep := -1
	for _, name := range seen {
		if !strings.Contains(name, "/uiuc") || !strings.Contains(name, "step-") {
			t.Fatalf("unexpected transaction name %q", name)
		}
		var step int
		if _, err := fmt.Sscanf(name[strings.Index(name, "step-"):], "step-%d/", &step); err != nil {
			t.Fatalf("parse %q: %v", name, err)
		}
		if step < lastStep {
			t.Fatalf("out-of-order notification: step %d after %d", step, lastStep)
		}
		lastStep = step
	}
}

// E6 integration: 130 remote participants chat and read live viewer data
// while a distributed experiment is running.
func TestParticipantsObserveLiveRun(t *testing.T) {
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = 60
	spec.DAQEvery = 1
	exp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()

	ws := collab.NewWorkspace("most")
	const participants = 130
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, participants)
	for i := 0; i < participants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := ws.Login(fmt.Sprintf("user-%03d", i))
			if err != nil {
				errs <- err
				return
			}
			if _, err := ws.Chat(s.Token, "main", "watching"); err != nil {
				errs <- err
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Poll the viewer like the CHEF data viewer did.
				exp.Viewer.Window("uiuc.disp", 0, 1e18)
				if _, err := ws.ChatSince(s.Token, "main", 0); err != nil {
					errs <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	res, err := exp.Run(context.Background())
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err != nil || res.Err != nil {
		t.Fatalf("run under observation failed: %v / %v", err, res.Err)
	}
	if got := len(ws.Presence()); got != participants {
		t.Fatalf("presence = %d", got)
	}
	if len(exp.Viewer.Window("uiuc.disp", 0, 1e18)) != spec.Steps+1 {
		t.Fatalf("viewer samples = %d", len(exp.Viewer.Window("uiuc.disp", 0, 1e18)))
	}
}

// Interlock trip mid-run: a rig emergency stop fails the site's execution
// and the run aborts with the failing step identified — the §4 safety path
// end to end.
func TestInterlockTripAbortsRun(t *testing.T) {
	spec := DryRunSpec(VariantHybrid)
	spec.Steps = 120
	const tripStep = 50
	var exp *Experiment
	spec.OnStep = func(st structural.State) {
		if st.Step == tripStep-1 {
			uiuc, _ := exp.Site("uiuc")
			uiuc.Rig.Interlock().Trip("operator emergency stop")
		}
	}
	var err error
	exp, err = Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("run should abort after the interlock trips")
	}
	if res.Report.FailedStep != tripStep {
		t.Fatalf("failed at step %d, want %d", res.Report.FailedStep, tripStep)
	}
	if !strings.Contains(res.Err.Error(), "interlock") &&
		!strings.Contains(res.Err.Error(), "stop") {
		t.Fatalf("error does not name the interlock: %v", res.Err)
	}
	_ = core.ErrFailed
}

// E9 in the flagship path: the experiment archives incrementally to the
// repository while running, and the complete data set is downloadable by
// logical name after completion (§2.2: "the complete data set can be
// accessed following completion of each time step via the … repository").
func TestIncrementalArchivalDuringRun(t *testing.T) {
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = 120
	spec.DAQEvery = 1
	spec.Archive = &ArchiveConfig{
		SpoolDir:    t.TempDir(),
		StoreDir:    t.TempDir(),
		BlockSize:   20,
		IngestEvery: 30,
	}
	exp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()

	midRunIngested := -1
	spec2 := exp.Spec
	spec2.OnStep = func(st structural.State) {
		if st.Step == 100 {
			midRunIngested = exp.IngestedBlocks()
		}
	}
	exp.Spec = spec2

	res, err := exp.Run(context.Background())
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	if res.ArchiveErr != nil {
		t.Fatalf("archive error: %v", res.ArchiveErr)
	}
	if midRunIngested <= 0 {
		t.Fatalf("no blocks ingested while the run was in progress (got %d)", midRunIngested)
	}
	// 121 scans per site at block size 20 -> 7 blocks per site (6 full +
	// 1 flushed tail), 3 sites.
	if got := exp.IngestedBlocks(); got != 3*7 {
		t.Fatalf("ingested %d blocks, want 21", got)
	}
	r := exp.Repo()
	// Pre-experiment metadata exists.
	if _, err := r.Meta.Get("exp:most"); err != nil {
		t.Fatal(err)
	}
	// Every catalog entry downloads and parses.
	entries := r.Files.List()
	if len(entries) != 21 {
		t.Fatalf("catalog has %d entries", len(entries))
	}
	dst := filepath.Join(t.TempDir(), "block.csv")
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
	// The archived roll-up says what the blocks cost in connections: the
	// ingestors share the archive's sessions instead of dialing per block.
	b, err := os.ReadFile(filepath.Join(spec.Archive.StoreDir, "most-metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rollup obs.Rollup
	if err := json.Unmarshal(b, &rollup); err != nil {
		t.Fatal(err)
	}
	counters := rollup.Fleet.Merged.Counters
	dials, reuses := counters["gridftp.client.dials"], counters["gridftp.client.reuses"]
	t.Logf("archived roll-up: %d dials and %d reuses for %d committed blocks",
		dials, reuses, counters["gridftp.server.requests.put-commit"])
	if dials < 1 || dials > 2 || reuses < 10*dials || counters["gridftp.server.requests.put-commit"] == 0 {
		t.Fatalf("archived roll-up: %d dials, %d reuses, %d commits; want two streams' worth of dials reused throughout",
			dials, reuses, counters["gridftp.server.requests.put-commit"])
	}
	// And what they cost in CSV: every block deposited was archived from the
	// summary its spool kept, none parsed back. (The roll-up is written before
	// the last poll, so it may trail the final count by the tail blocks.)
	deposited, ingested := counters["daq.spool.blocks"], counters["repo.ingest.blocks"]
	orphans, ok := counters["repo.ingest.orphan_blocks"]
	if !ok || orphans != 0 || counters["repo.ingest.rollbacks"] != 0 || ingested == 0 || ingested > deposited ||
		counters["daq.spool.bytes"] == 0 || rollup.Fleet.Merged.Histograms["repo.ingest.block_s"].Count != ingested {
		t.Fatalf("archived roll-up: %d blocks deposited, %d ingested, %d parsed back (present %v): %v",
			deposited, ingested, orphans, ok, counters)
	}
}

// The paper ran the full experiment twice on the same apparatus: "once as a
// 'dry run' … and then as the full experiment". Reset returns every
// substructure to its virgin state so back-to-back runs on one topology
// produce identical trajectories.
func TestRunTwiceWithResetMatches(t *testing.T) {
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = 80
	exp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()

	first, err := exp.Run(context.Background())
	if err != nil || first.Err != nil {
		t.Fatalf("first run: %v / %v", err, first.Err)
	}
	// Without a reset the bilinear columns remember their yield history.
	for _, s := range exp.Sites {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	spec2 := exp.Spec
	spec2.Name = "most-second"
	exp.Spec = spec2
	second, err := exp.Run(context.Background())
	if err != nil || second.Err != nil {
		t.Fatalf("second run: %v / %v", err, second.Err)
	}
	for i := range first.History.States {
		if first.History.States[i].D[0] != second.History.States[i].D[0] {
			t.Fatalf("step %d: second run diverged (%g vs %g) — reset incomplete",
				i, second.History.States[i].D[0], first.History.States[i].D[0])
		}
	}
}

// The experiment completes over an emulated wide-area network with latency
// and jitter on every site link (scaled down from the 2003 Illinois-
// Colorado path to keep the test fast).
func TestRunOverWANProfile(t *testing.T) {
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = 30
	for i := range spec.Sites {
		spec.Sites[i].WAN = faultnet.Profile{
			Latency: 2 * time.Millisecond,
			Jitter:  time.Millisecond,
			Seed:    int64(i + 1),
		}
	}
	exp, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()
	start := time.Now()
	res, err := exp.Run(context.Background())
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	// 30 steps x 2 phases x >=2ms of injected one-way delay: the wall
	// clock must show the WAN (>120ms), proving traffic actually traversed
	// the injectors.
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Fatalf("run finished in %v — WAN latency not applied", elapsed)
	}
}
