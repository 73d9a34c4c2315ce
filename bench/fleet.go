package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"neesgrid/internal/fleet"
	"neesgrid/internal/obs"
	"neesgrid/internal/telemetry"
)

const (
	fleetSlots       = 2
	fleetOutstanding = 3 * fleetSlots // jobs kept submitted and unfinished
	fleetWindow      = 8              // finished jobs per repeat
)

var fleetTenants = []string{"alpha", "beta"}

// fleetJob is one submitted job as the benchmark sees it.
type fleetJob struct {
	id        string
	submitted time.Time
	granted   time.Time // first non-queued view
}

// fleetRun keeps fleetOutstanding jobs in a two-slot scheduler: a new job
// is submitted when one finishes. The loop runs on across repeats; a repeat
// is the window in which the next fleetWindow jobs finish.
type fleetRun struct {
	s     *settings
	steps int
	store string
	reg   *telemetry.Registry
	pool  *fleet.Pool
	agg   *obs.Aggregator
	sched *fleet.Scheduler

	open      []*fleetJob
	submitted int // also picks the next tenant: they alternate
	finished  int
	bad       []string
	submitS   []float64
	runS      []float64 // granted → finished
	first     time.Time // first timed submission
}

func buildFleet(s *settings) (instance, error) {
	f := &fleetRun{s: s, steps: s.size(300, 30), reg: telemetry.NewRegistry()}
	var err error
	if f.store, err = os.MkdirTemp(s.tmp, "fleet-store-"); err != nil {
		return nil, err
	}
	if f.pool, err = fleet.NewPool(fleet.PoolConfig{Slots: fleetSlots, Registry: f.reg}); err != nil {
		return nil, err
	}
	// Roll-ups arrive in-process; the aggregator's scrape loop stays off.
	f.agg = obs.New(obs.Config{StaleAfter: time.Hour})
	tenants := make([]fleet.Tenant, len(fleetTenants))
	for i, name := range fleetTenants {
		tenants[i] = fleet.Tenant{Name: name, Weight: 1}
	}
	f.sched, err = fleet.NewScheduler(fleet.Config{
		Pool: f.pool, Tenants: tenants, StoreRoot: f.store, Agg: f.agg, Registry: f.reg,
	})
	if err == nil {
		err = f.sched.Start(context.Background())
	}
	if err != nil {
		f.close()
		return nil, err
	}
	// Warm-up: one job end to end.
	if err := f.submit(); err != nil {
		f.close()
		return nil, err
	}
	if _, err := f.pump(false, func() bool { return f.finished == 1 }); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.submitS, f.runS = nil, nil
	return f, nil
}

// submit sends the next job. Tenants alternate from a seed-chosen start, so
// both always have queued work and the grant order must alternate too.
func (f *fleetRun) submit() error {
	tenant := fleetTenants[(int(f.s.seed&1)+f.submitted)%len(fleetTenants)]
	sp := f.s.tr.start("fleet.Submit", int64(f.submitted+1), nil)
	start := time.Now()
	job, err := f.sched.Submit(fleet.Request{Tenant: tenant, Name: "bench", Steps: f.steps})
	f.submitS = append(f.submitS, time.Since(start).Seconds())
	sp.end()
	if err != nil {
		return err
	}
	f.submitted++
	f.open = append(f.open, &fleetJob{id: job.ID, submitted: start})
	return nil
}

// poll reads every open job's view once, stamps grants, retires finished
// jobs and returns their queue waits.
func (f *fleetRun) poll() (waits []float64) {
	now := time.Now()
	still := f.open[:0]
	for _, j := range f.open {
		view, ok := f.sched.Job(j.id)
		if !ok {
			f.bad = append(f.bad, j.id+" vanished")
			f.finished++
			continue
		}
		if j.granted.IsZero() && view.State != fleet.StateQueued {
			j.granted = now
		}
		switch view.State {
		case fleet.StateQueued, fleet.StateRunning:
			still = append(still, j)
			continue
		}
		f.finished++
		waits = append(waits, j.granted.Sub(j.submitted).Seconds())
		f.runS = append(f.runS, now.Sub(j.granted).Seconds())
		f.s.tr.record("fleet.queued", int64(f.finished), nil, j.submitted, j.granted)
		f.s.tr.record("fleet.job", int64(f.finished), nil, j.granted, now)
		if view.State != fleet.StateDone || view.StepsDone != f.steps {
			f.bad = append(f.bad, fmt.Sprintf("%s %s %d/%d steps %s", view.ID, view.State, view.StepsDone, f.steps, view.Err))
		}
	}
	f.open = still
	return waits
}

// pump polls at 1 ms until done, keeping fleetOutstanding jobs submitted when
// refill is set, and returns the queue waits of the jobs that finished.
func (f *fleetRun) pump(refill bool, done func() bool) (waits []float64, err error) {
	deadline := time.Now().Add(2 * time.Minute)
	for !done() {
		for refill && len(f.open) < fleetOutstanding {
			if err := f.submit(); err != nil {
				return waits, err
			}
		}
		if time.Now().After(deadline) {
			return waits, fmt.Errorf("fleet: %d jobs still open after two minutes", len(f.open))
		}
		time.Sleep(time.Millisecond)
		waits = append(waits, f.poll()...)
	}
	return waits, nil
}

func (f *fleetRun) repeat(int) (repeat, error) {
	if f.first.IsZero() {
		f.first = time.Now()
	}
	rep := repeat{ops: fleetWindow}
	target := f.finished + fleetWindow
	bad := len(f.bad)
	cpu, start := cpuSeconds(), time.Now()
	var err error
	rep.lat, err = f.pump(true, func() bool { return f.finished >= target })
	rep.opsPerS = fleetWindow / time.Since(start).Seconds()
	rep.cpuPerOp = (cpuSeconds() - cpu) / fleetWindow
	rep.failed = len(f.bad) - bad
	return rep, err
}

func (f *fleetRun) finish(res *result) {
	// Let the jobs still queued or running finish; they are checked, not timed.
	_, err := f.pump(false, func() bool { return len(f.open) == 0 })
	makespan := time.Since(f.first).Seconds()
	res.check("jobs-done", err == nil && len(f.bad) == 0, "%v %v", err, f.bad)

	merged := f.agg.Merged()
	want := int64(f.submitted * f.steps)
	res.check("merged-steps", merged.Counters["coord.steps.completed"] == want,
		"merged coord.steps.completed = %d, want %d", merged.Counters["coord.steps.completed"], want)

	grants := f.sched.GrantOrder()
	alternates := len(grants) == f.submitted
	for i := 1; i < len(grants); i++ {
		alternates = alternates && grants[i] != grants[i-1]
	}
	res.check("grants-alternate", alternates, "%d grants for %d jobs: %v", len(grants), f.submitted, grants)

	busy := 0.0
	for _, d := range f.runS {
		busy += d
	}
	jobs := float64(max(len(f.runS), 1))
	stepping := merged.Histograms["coord.step.seconds"].Sum / float64(max(f.submitted, 1))
	res.layer["fleet.submit_s_p50"] = percentile(sorted(f.submitS), 50)
	res.layer["fleet.job_overhead_s"] = busy/jobs - stepping
	res.layer["fleet.slot_busy_share"] = busy / (fleetSlots * makespan)
	res.layer["fleet.rejected"] = float64(f.reg.Snapshot().Counters["fleet.jobs.rejected"])
}

func (f *fleetRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.sched != nil {
		_ = f.sched.Stop(ctx)
	}
	if f.pool != nil {
		_ = f.pool.Stop(ctx)
	}
	_ = os.RemoveAll(f.store)
}
