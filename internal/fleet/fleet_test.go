package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/core"
	"neesgrid/internal/journal"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
)

func newTestPool(t *testing.T, slots int, reg *telemetry.Registry) *Pool {
	t.Helper()
	pool, err := NewPool(PoolConfig{Slots: slots, Registry: reg})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { _ = pool.Stop(context.Background()) })
	return pool
}

func startScheduler(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Stop(ctx)
	})
}

// waitAll polls until every submitted job is done, failed or cancelled.
func waitAll(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		live := 0
		for _, v := range s.Jobs() {
			if v.State == StateQueued || v.State == StateRunning {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still live after 2m: %+v", live, s.Jobs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Admission control: a tenant's backlog is bounded; the scheduler rejects
// past the bound and counts the rejection, without disturbing the queued
// work. Unknown tenants and unsatisfiable slot counts are rejected too.
func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	pool := newTestPool(t, 1, reg)
	s, err := NewScheduler(Config{
		Pool:     pool,
		Tenants:  []Tenant{{Name: "alpha", MaxQueued: 2}},
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	// Not started: everything queues, nothing drains — the bound is hit
	// deterministically.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{Tenant: "alpha", Steps: 3}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(Request{Tenant: "alpha", Steps: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota submit: err=%v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(Request{Tenant: "nobody", Steps: 3}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err=%v, want ErrUnknownTenant", err)
	}
	if _, err := s.Submit(Request{Tenant: "alpha", Slots: 2, Steps: 3}); err == nil {
		t.Fatal("2-slot request against a 1-slot pool was admitted")
	}
	if got := reg.Counter("fleet.jobs.rejected").Value(); got != 3 {
		t.Fatalf("fleet.jobs.rejected = %d, want 3", got)
	}
	if got := reg.Gauge("fleet.jobs.queued").Value(); got != 2 {
		t.Fatalf("fleet.jobs.queued = %g, want 2", got)
	}
}

// Fair share: six jobs from two equal-weight tenants over a two-slot pool
// grant in strict alternation while both queues are nonempty, FIFO within
// each tenant, regardless of completion timing. The aggregator is fleetd's:
// its merged view sums the six pushed roll-ups exactly.
func TestFairShareOrderingAcrossTenants(t *testing.T) {
	t.Parallel()
	const steps = 4
	reg := telemetry.NewRegistry()
	pool := newTestPool(t, 2, reg)
	agg := obs.New(obs.Config{Sources: most.ObsSources(pool.Sites(), "fleetd", reg, nil)})
	s, err := NewScheduler(Config{
		Pool:     pool,
		Tenants:  []Tenant{{Name: "alpha", Weight: 1}, {Name: "beta", Weight: 1}},
		Agg:      agg,
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		job, err := s.Submit(Request{Tenant: "alpha", Name: "a", Steps: steps})
		if err != nil {
			t.Fatalf("submit alpha: %v", err)
		}
		jobs = append(jobs, job)
	}
	for i := 0; i < 2; i++ {
		job, err := s.Submit(Request{Tenant: "beta", Name: "b", Steps: steps})
		if err != nil {
			t.Fatalf("submit beta: %v", err)
		}
		jobs = append(jobs, job)
	}
	startScheduler(t, s)
	waitAll(t, s)

	want := "alpha beta alpha beta alpha alpha"
	if got := strings.Join(s.GrantOrder(), " "); got != want {
		t.Fatalf("grant order %q, want %q", got, want)
	}
	// FIFO within a tenant: alpha's jobs carry strictly increasing Seq in
	// submission order, and every job completed.
	lastAlpha := -1
	for _, job := range jobs {
		view, ok := s.Job(job.ID)
		if !ok {
			t.Fatalf("job %s vanished", job.ID)
		}
		if view.State != StateDone || view.StepsDone != steps {
			t.Fatalf("job %s state=%s steps=%d err=%q, want done %d/%d",
				view.ID, view.State, view.StepsDone, view.Err, steps, steps)
		}
		if view.Tenant == "alpha" {
			if view.Seq <= lastAlpha {
				t.Fatalf("alpha job %s granted out of FIFO order (seq %d after %d)",
					view.ID, view.Seq, lastAlpha)
			}
			lastAlpha = view.Seq
		}
	}

	agg.ScrapeOnce(context.Background())
	view := agg.Fleet()
	if view.MergeError != "" {
		t.Fatalf("merge error: %s", view.MergeError)
	}
	for name, want := range map[string]int64{
		"coord.steps.completed": int64(len(jobs) * steps),
		"fleet.jobs.completed":  int64(len(jobs)),
		"fleet.leases.granted":  int64(len(jobs)),
		"fleet.leases.released": int64(len(jobs)),
		"fleet.jobs.failed":     0,
	} {
		if got, ok := view.Merged.Counters[name]; !ok || got != want {
			t.Errorf("merged %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
}

// Weighted share: with two free slots and weight 2, a tenant takes two
// consecutive grants per turn before the rotation moves on.
func TestWeightedGrantBurst(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	pool := newTestPool(t, 2, reg)
	s, err := NewScheduler(Config{
		Pool:     pool,
		Tenants:  []Tenant{{Name: "alpha", Weight: 2}, {Name: "beta", Weight: 1}},
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(Request{Tenant: "alpha", Steps: 4}); err != nil {
			t.Fatalf("submit alpha: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Request{Tenant: "beta", Steps: 4}); err != nil {
			t.Fatalf("submit beta: %v", err)
		}
	}
	startScheduler(t, s)
	waitAll(t, s)

	// Initial pass: alpha bursts both slots. Each completion then frees
	// one slot at a time, so later turns grant singly — but the rotation
	// still alternates tenants from wherever the cursor stopped.
	want := "alpha alpha beta alpha beta alpha"
	if got := strings.Join(s.GrantOrder(), " "); got != want {
		t.Fatalf("grant order %q, want %q", got, want)
	}
}

// Release on failure: a job that dies mid-run (fatal outage, no retries)
// must return its slot — with armed faults cleared and the specimen reset
// — so the next queued job runs to completion on the same slot.
func TestSlotReleasedAfterMidRunFailure(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	pool := newTestPool(t, 1, reg)
	s, err := NewScheduler(Config{
		Pool:     pool,
		Tenants:  []Tenant{{Name: "alpha"}},
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	doomed, err := s.Submit(Request{Tenant: "alpha", Name: "doomed", Steps: 8, FailAt: 3})
	if err != nil {
		t.Fatalf("submit doomed: %v", err)
	}
	survivor, err := s.Submit(Request{Tenant: "alpha", Name: "survivor", Steps: 8})
	if err != nil {
		t.Fatalf("submit survivor: %v", err)
	}
	startScheduler(t, s)
	waitAll(t, s)

	if view, _ := s.Job(doomed.ID); view.State != StateFailed {
		t.Fatalf("doomed job state=%s err=%q, want failed", view.State, view.Err)
	}
	if view, _ := s.Job(survivor.ID); view.State != StateDone || view.StepsDone != 8 {
		t.Fatalf("survivor state=%s steps=%d err=%q, want done 8/8 on the released slot",
			view.State, view.StepsDone, view.Err)
	}
	if free := pool.Free(); free != 1 {
		t.Fatalf("pool has %d free slots after drain, want 1", free)
	}
	if got := reg.Counter("fleet.leases.released").Value(); got != 2 {
		t.Fatalf("fleet.leases.released = %d, want 2", got)
	}
	// The fatal outage armed by the doomed run must not leak into the
	// slot's next lease.
	for _, site := range pool.Sites() {
		site.Injector.ClearFaults() // idempotent; the release already did this
	}
}

// Tenant isolation on disk: two tenants reusing the same run name — and
// one tenant reusing its own — never collide on store paths; every job
// writes its checkpoint under its own tenant-prefixed directory.
func TestTenantStorePathsNeverCollide(t *testing.T) {
	t.Parallel()
	store := t.TempDir()
	reg := telemetry.NewRegistry()
	pool := newTestPool(t, 2, reg)
	s, err := NewScheduler(Config{
		Pool:      pool,
		Tenants:   []Tenant{{Name: "alpha"}, {Name: "beta"}},
		StoreRoot: store,
		Registry:  reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	var jobs []*Job
	for _, tenant := range []string{"alpha", "alpha", "beta"} {
		job, err := s.Submit(Request{Tenant: tenant, Name: "run", Steps: 4})
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		jobs = append(jobs, job)
	}
	startScheduler(t, s)
	waitAll(t, s)

	seen := map[string]string{}
	for _, job := range jobs {
		view, _ := s.Job(job.ID)
		if view.State != StateDone {
			t.Fatalf("job %s state=%s err=%q, want done", view.ID, view.State, view.Err)
		}
		if view.Store == "" {
			t.Fatalf("job %s has no store prefix", view.ID)
		}
		wantPrefix := filepath.Join(store, view.Tenant) + string(filepath.Separator)
		if !strings.HasPrefix(view.Store, wantPrefix) {
			t.Fatalf("job %s store %q not under tenant prefix %q", view.ID, view.Store, wantPrefix)
		}
		if prev, dup := seen[view.Store]; dup {
			t.Fatalf("jobs %s and %s share store path %q", prev, view.ID, view.Store)
		}
		seen[view.Store] = view.ID
		if _, err := os.Stat(filepath.Join(view.Store, "checkpoint.log")); err != nil {
			t.Fatalf("job %s checkpoint: %v", view.ID, err)
		}
	}
}

// A 300-step job checkpoints at step 0, every 25th step and the last: 13
// checkpoints, appended to one journal that is the only file in its store.
func TestJobCheckpointsToOneLog(t *testing.T) {
	t.Parallel()
	store := t.TempDir()
	reg := telemetry.NewRegistry()
	agg := obs.New(obs.Config{})
	s, err := NewScheduler(Config{
		Pool:      newTestPool(t, 1, reg),
		Tenants:   []Tenant{{Name: "alpha"}},
		StoreRoot: store,
		Agg:       agg,
		Registry:  reg,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	job, err := s.Submit(Request{Tenant: "alpha", Name: "run", Steps: 300})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	startScheduler(t, s)
	waitAll(t, s)

	view, _ := s.Job(job.ID)
	if view.State != StateDone || view.StepsDone != 300 {
		t.Fatalf("job state=%s steps=%d err=%q, want done 300/300", view.State, view.StepsDone, view.Err)
	}
	snap, ok := agg.SiteSnapshot(view.Tenant + "/" + view.ID)
	if !ok {
		t.Fatal("job pushed no roll-up")
	}
	if got := snap.Counters["coord.checkpoints.written"]; got != 13 {
		t.Fatalf("coord.checkpoints.written = %d, want 13", got)
	}
	// One site, one handshake: the job's coordinator verifies one signed
	// reply and takes every other one MAC'd, and every document it decodes
	// stays on the strict readers.
	for name, want := range map[string]int64{"ogsi.auth.signed": 1, "ogsi.context.established": 1, "ogsi.decode.fallbacks": 0} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	entries, err := os.ReadDir(view.Store)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "checkpoint.log" {
		t.Fatalf("job store holds %v, want only checkpoint.log", entries)
	}
	path := filepath.Join(view.Store, "checkpoint.log")
	records := 0
	if err := journal.Replay(path, func([]byte) { records++ }); err != nil || records != 13 {
		t.Fatalf("checkpoint log holds %d records (err %v), want 13", records, err)
	}
	if cp, err := coord.LoadCheckpoint(path); err != nil || cp.Step != 300 {
		t.Fatalf("last checkpoint %+v, err %v; want step 300", cp, err)
	}
}

// TestReleaseKeepsTheTransactionTable: Release resets the specimen, not the
// slot's NTCP transaction table. A late retry from the previous lease is
// still answered to its owner from the table — clearing it would execute
// that step a second time, on the next tenant's specimen — and the next
// tenant, naming the same transaction, is refused.
func TestReleaseKeepsTheTransactionTable(t *testing.T) {
	t.Parallel()
	pool := newTestPool(t, 1, telemetry.NewRegistry())
	sites, err := pool.Lease(1)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	site := sites[0]
	ctx := context.Background()
	alpha, beta := "/O=NEES/OU=alpha/CN=alpha-shake-1", "/O=NEES/OU=beta/CN=beta-shake-2"
	p := &core.Proposal{Name: "alpha-shake-1/step-7/slot-0",
		Actions: []core.Action{{ControlPoint: site.Spec.Point, Displacements: []float64{0.001}}}}
	first, err := site.Server.ProposeAndExecute(ctx, alpha, p)
	if err != nil || first.State != core.StateExecuted {
		t.Fatalf("alpha's step: %+v %v", first, err)
	}
	if err := pool.Release(sites); err != nil {
		t.Fatalf("Release: %v", err)
	}

	again, err := site.Server.ProposeAndExecute(ctx, alpha, p)
	if err != nil || again.State != core.StateExecuted || again.Results[0].Forces[0] != first.Results[0].Forces[0] {
		t.Fatalf("alpha's late retry: %+v %v, want the recorded outcome %+v", again, err, first)
	}
	if st := site.Server.Stats(); st.Executed != 1 || st.DedupedReplay != 1 {
		t.Fatalf("after the retry: %+v, want one execution and one replay", st)
	}

	if _, err := pool.Lease(1); err != nil {
		t.Fatalf("second lease: %v", err)
	}
	for op, call := range map[string]func() (*core.Record, error){
		"ProposeAndExecute": func() (*core.Record, error) { return site.Server.ProposeAndExecute(ctx, beta, p) },
		"Execute":           func() (*core.Record, error) { return site.Server.Execute(ctx, beta, p.Name) },
		"Cancel":            func() (*core.Record, error) { return site.Server.Cancel(ctx, beta, p.Name) },
	} {
		var oe *ogsi.OpError
		if rec, err := call(); rec != nil || !errors.As(err, &oe) || oe.Code != ogsi.CodeDenied {
			t.Fatalf("beta's %s of alpha's step: %+v %v, want denied", op, rec, err)
		}
	}
	if st := site.Server.Stats(); st.Executed != 1 || st.DedupedReplay != 1 {
		t.Fatalf("after beta's attempts: %+v", st)
	}
}
