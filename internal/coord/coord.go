// Package coord implements the MOST Simulation Coordinator (paper Fig. 5):
// the component that "repeatedly issues a set of NTCP proposals based on
// current simulation state, collects information about the resulting state
// of all the substructures, and, based on that resulting state, computes the
// next set of NTCP commands to send", handling exceptions such as lost
// network connections along the way.
//
// The coordinator embeds the MS-PSDS method: a structural integrator
// (internal/structural) computes target displacements each step; the
// restoring forces come back from distributed substructures through
// propose → execute NTCP transactions. Transaction names are deterministic
// ("step-<n>/<site>"), so retries after network failures dedupe server-side
// and no action is ever applied twice.
package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/journal"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// Site is one experiment site: an NTCP endpoint hosting one substructure.
type Site struct {
	// Name identifies the site ("uiuc", "ncsa", "cu").
	Name string
	// Client is the NTCP client for the site (carries its retry policy).
	Client *core.Client
	// ControlPoint is the control point name at the site.
	ControlPoint string
	// DOFs maps the substructure's local DOFs to global model DOFs.
	DOFs []int
}

// Config parameterizes a distributed pseudo-dynamic run.
type Config struct {
	// M, C, K are the numerical matrices of the equation of motion (K is
	// the initial stiffness, required by the α-OS integrator).
	M, C, K *structural.Matrix
	// Integrator advances the equation of motion. Nil selects explicit
	// Newmark.
	Integrator structural.Integrator
	// Dt and Steps define the grid (MOST: 0.01 s × 1500).
	Dt    float64
	Steps int
	// Ground returns üg at a step index.
	Ground func(step int) float64
	// StepTimeout bounds one whole distributed step (all sites). Zero
	// means 60 s.
	StepTimeout time.Duration
	// OnStep observes each committed state (streaming, ingestion, UI). Its
	// context carries the step's trace: work done inside it (DAQ scans,
	// streaming publishes) parents under the step's root span.
	OnStep func(context.Context, structural.State)
	// RunID prefixes transaction names so re-runs against long-lived
	// servers do not collide. Empty means "run".
	RunID string
	// FastPath and Pipeline select the step schedule (see restore); with
	// neither set it is the classic one, propose barrier then execute.
	//
	// FastPath drops the cross-site accept barrier: each site gets one
	// proposeAndExecute per step, one round trip instead of two. A site
	// rejecting a step can then no longer prevent the other sites from
	// having executed theirs, so it is appropriate for rehearsed
	// near-real-time experiments whose proposals are known to satisfy site
	// policy.
	FastPath bool
	// Pipeline keeps the barrier but moves it a step earlier: execute(N)
	// travels with a speculative propose(N+1) at the integrator's predicted
	// displacement in one batched signed envelope per site, so the
	// steady-state WAN cost of a step is one round trip instead of ~2.5.
	// When step N's forces move the trajectory beyond PipelineTolerance the
	// speculative proposals are cancelled and step N+1 is re-proposed at its
	// actual displacement behind an explicit barrier. Mutually exclusive
	// with FastPath.
	Pipeline bool
	// PipelineTolerance is the per-DOF displacement error (model units —
	// metres for MOST) within which a speculatively accepted step equals
	// the actual one. Zero selects 1e-3 m: on the order of actuator
	// positioning accuracy, and comfortably above the ~|a|·dt² error of
	// the linear predictor at MOST's dt = 0.01 s. Negative forces a
	// rollback every step (a determinism-debugging aid).
	PipelineTolerance float64
	// Telemetry receives per-step wall-clock histograms and step events.
	// Share it with the sites' NTCP clients (NewClientWithTelemetry) and the
	// run report's summary covers round-trip latency too. Nil allocates a
	// private registry.
	Telemetry *telemetry.Registry
	// Tracer, when set, opens one root span per time step ("coord.step",
	// with run and step attributes) and a child span per site per NTCP
	// phase, so a merged cross-site timeline can answer "which site made
	// step N slow". Share its recorder with the ogsi clients' tracer so
	// client transport spans land in the same ring. Nil disables tracing.
	Tracer *trace.Tracer
	// Checkpoint, when non-nil, appends the coordinator's committed state
	// to a checkpoint log after every Checkpoint.Every steps. The
	// integrator must implement structural.Resumable. A checkpoint write
	// failure aborts the run: silently losing durability would turn the
	// next crash into exactly the unrecoverable step-1493 ending this
	// feature exists to prevent.
	Checkpoint *CheckpointConfig
	// Resume, when non-nil, starts the run from a checkpoint instead of
	// from rest: the integrator is reconstructed at Resume.Step and the
	// loop continues at Resume.Step+1, re-proposing through restore —
	// already-decided transactions at the sites replay from
	// their dedupe tables, fresh ones execute normally.
	Resume *Checkpoint
	// Interrupt, when set, is consulted before each step is integrated; a
	// non-nil error aborts the run at that step with no network traffic.
	// The chaos engine uses it to kill the coordinator deterministically
	// at a scheduled step (a context cancel would leak a timing-dependent
	// number of in-flight calls into the sites' fault injectors and break
	// byte-replay).
	Interrupt func(step int) error
}

// Report summarizes a run — the material of §3.4.
type Report struct {
	// StepsCompleted is the number of integration steps committed.
	StepsCompleted int
	// Completed is true when every requested step committed.
	Completed bool
	// FailedStep is the step at which the run aborted (0 if completed).
	FailedStep int
	// Err is the terminal error (nil if completed).
	Err error
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Recovered is the total number of calls that succeeded only after
	// retries — the "several transient network failures" counter.
	Recovered int
	// Retries is the total number of retry attempts across all sites.
	Retries int
	// ResumedFrom is the checkpoint step this run resumed from (-1 when
	// the run started from rest).
	ResumedFrom int
	// Checkpoints is the number of checkpoints written during the run.
	Checkpoints int
	// StepLatency summarizes per-step wall-clock time (p50/p95/p99) — the
	// number that tells you whether the WAN or the rigs dominate a step.
	StepLatency telemetry.HistogramSnapshot
	// Telemetry is the coordinator registry snapshot at run end; when the
	// site clients share the registry it includes their round-trip
	// histograms and recovery counters.
	Telemetry telemetry.Snapshot
}

// Coordinator drives one distributed hybrid experiment.
type Coordinator struct {
	cfg    Config
	sites  []Site
	tel    *telemetry.Registry
	tracer *trace.Tracer
	// spec carries the speculative proposals from one restore call to the
	// next when Pipeline is on. Run resets it at start; the Run loop is
	// single-goroutine so no locking is needed.
	spec speculation
	// workers[i] hands site i's calls to the site's caller goroutine, which
	// lives as long as Run (see eachSite).
	workers []chan siteCall
}

// New validates the topology and returns a coordinator.
func New(cfg Config, sites ...Site) (*Coordinator, error) {
	if cfg.M == nil {
		return nil, fmt.Errorf("coord: mass matrix required")
	}
	if cfg.Dt <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("coord: positive dt and steps required")
	}
	if cfg.Ground == nil {
		return nil, fmt.Errorf("coord: ground motion required")
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("coord: at least one site required")
	}
	n := cfg.M.Rows
	seen := make(map[string]bool)
	for _, s := range sites {
		if s.Client == nil {
			return nil, fmt.Errorf("coord: site %q has no client", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("coord: duplicate site %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.DOFs) == 0 {
			return nil, fmt.Errorf("coord: site %q maps no DOFs", s.Name)
		}
		for _, g := range s.DOFs {
			if g < 0 || g >= n {
				return nil, fmt.Errorf("coord: site %q maps out-of-range DOF %d", s.Name, g)
			}
		}
	}
	if cfg.StepTimeout <= 0 {
		cfg.StepTimeout = 60 * time.Second
	}
	if cfg.Pipeline && cfg.FastPath {
		return nil, fmt.Errorf("coord: Pipeline and FastPath are mutually exclusive")
	}
	if cfg.PipelineTolerance == 0 {
		cfg.PipelineTolerance = defaultPipelineTolerance
	}
	if cfg.RunID == "" {
		cfg.RunID = "run"
	}
	if cfg.Integrator == nil {
		cfg.Integrator = structural.NewExplicitNewmark()
	}
	if cfg.Checkpoint != nil || cfg.Resume != nil {
		if _, ok := cfg.Integrator.(structural.Resumable); !ok {
			return nil, fmt.Errorf("coord: integrator %s does not support checkpoint/resume",
				cfg.Integrator.Name())
		}
	}
	c := &Coordinator{cfg: cfg, sites: sites, tel: telemetry.OrNew(cfg.Telemetry), tracer: cfg.Tracer}
	if cfg.Resume != nil {
		if err := c.validateResume(cfg.Resume); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// stepError wraps a step failure with its step number.
type stepError struct {
	step int
	err  error
}

func (e *stepError) Error() string { return fmt.Sprintf("step %d: %v", e.step, e.err) }
func (e *stepError) Unwrap() error { return e.err }

// maxProposalRevisions bounds how many cancelled incarnations of one
// transaction the coordinator will walk past before giving up. Each
// revision corresponds to one aborted step attempt in an earlier
// incarnation, so the bound only matters when something is wedged.
const maxProposalRevisions = 16

// cancelDeliveryTimeout bounds abort-path cancels. They run on a context
// detached from the step (which is usually being torn down, possibly
// because its deadline already expired), so they need their own leash.
const cancelDeliveryTimeout = 10 * time.Second

// revisionName returns the deterministic name of revision rev of a
// transaction (revision 0 is the base name itself).
func revisionName(base string, rev int) string {
	if rev == 0 {
		return base
	}
	return base + "/r" + strconv.Itoa(rev)
}

// proposals builds every site's proposal for step at the global
// displacement d.
func (c *Coordinator) proposals(step int, d []float64) []*core.Proposal {
	ps := make([]*core.Proposal, len(c.sites))
	for i, s := range c.sites {
		local := make([]float64, len(s.DOFs))
		for j, g := range s.DOFs {
			local[j] = d[g]
		}
		ps[i] = &core.Proposal{
			Name: fmt.Sprintf("%s/step-%d/%s", c.cfg.RunID, step, s.Name),
			Actions: []core.Action{{
				ControlPoint:  s.ControlPoint,
				Displacements: local,
			}},
		}
	}
	return ps
}

// siteCall is one phase's call at one site.
type siteCall struct {
	ctx  context.Context
	span string
	fn   func(ctx context.Context, i int) error
	done *sync.WaitGroup
}

// startWorkers starts one caller goroutine per site for the length of a run,
// so the stack a call grows through the HTTP and GSI layers is grown once
// per site rather than once per site per phase. stop ends them and waits
// until every one has exited.
func (c *Coordinator) startWorkers() (stop func()) {
	var exited sync.WaitGroup
	c.workers = make([]chan siteCall, len(c.sites))
	for i := range c.workers {
		calls := make(chan siteCall)
		c.workers[i] = calls
		exited.Add(1)
		go func() {
			defer exited.Done()
			for call := range calls {
				sctx, sp := c.tracer.Start(call.ctx, call.span, trace.KindInternal)
				sp.SetAttr("site", c.sites[i].Name)
				sp.SetError(call.fn(sctx, i))
				sp.End()
				call.done.Done()
			}
		}()
	}
	return func() {
		for _, calls := range c.workers {
			close(calls)
		}
		exited.Wait()
		c.workers = nil
	}
}

// eachSite runs fn for every site that want selects (nil selects all),
// concurrently — a phase should cost one round trip, not O(sites × RTT) —
// each on its site's worker under a child span that records fn's error, and
// waits for all. Every worker is therefore idle when a phase begins, and a
// site's calls run in phase order.
func (c *Coordinator) eachSite(ctx context.Context, span string, want func(i int) bool, fn func(ctx context.Context, i int) error) {
	var wg sync.WaitGroup
	for i := range c.sites {
		if want != nil && !want(i) {
			continue
		}
		wg.Add(1)
		c.workers[i] <- siteCall{ctx: ctx, span: span, fn: fn, done: &wg}
	}
	wg.Wait()
}

// displacementsWithin reports whether a record's proposed action matches
// the intended displacements within tol on every DOF.
func displacementsWithin(rec *core.Record, want []float64, tol float64) bool {
	if len(rec.Actions) != 1 || len(rec.Actions[0].Displacements) != len(want) {
		return false
	}
	for j, v := range want {
		if math.Abs(rec.Actions[0].Displacements[j]-v) > tol {
			return false
		}
	}
	return true
}

// proposeRevised proposes p, walking past incarnations of the same
// transaction that must not be executed. A propose replayed against the
// dedupe table returns whatever record the name resolved to (the server
// ignores params on a replay), including:
//
//   - one a previous incarnation cancelled on its abort path. Executing a
//     cancelled transaction is a conflict, so the walk bumps a revision
//     suffix (base, base/r1, base/r2, …) until it reaches a live or fresh
//     transaction;
//   - an ACCEPTED speculation a dead pipelined incarnation left behind,
//     carrying that incarnation's *predicted* displacements. Executing it
//     would apply the wrong displacement, so a mismatch beyond the
//     speculation tolerance cancels the stale transaction and bumps the
//     revision. A fresh accept echoes the proposal exactly and a replayed
//     non-speculative accept is bit-identical, so this never fires on them.
//
// withdraw, when not empty, is an accepted speculation held under p's base
// name (a mispredicted pipelined step). Its cancel rides in the envelope of
// the walk's first propose, [cancel r, propose r+1], so the walk starts at
// revision 1: proposing the base name again would only replay the record
// that envelope cancels. The cancel's own fault is not the step's, as on the
// abort path (cancelAccepted): a speculation that could not be cancelled is
// never executed, and a resumed walk meets it again.
//
// Every incarnation replays the same walk, so names stay a pure function of
// the fault history. On success p.Name holds the name actually proposed
// (the one execute and cancel must use).
func (c *Coordinator) proposeRevised(ctx context.Context, cl *core.Client, p *core.Proposal, withdraw string) (*core.Record, error) {
	base := p.Name
	want := p.Actions[0].Displacements
	tol := math.Max(0, c.cfg.PipelineTolerance)
	rev := 0
	if withdraw != "" {
		rev = 1
	}
	for ; rev <= maxProposalRevisions; rev++ {
		p.Name = revisionName(base, rev)
		var rec *core.Record
		var err error
		if withdraw == "" {
			rec, err = cl.Propose(ctx, p)
		} else if _, rec, err = cl.CancelAndPropose(ctx, withdraw, p); rec != nil {
			err, withdraw = nil, ""
		}
		if err != nil {
			return nil, err
		}
		switch {
		case rec.State == core.StateCancelled:
			c.tel.Counter("coord.proposals.revised").Inc()
		case rec.State == core.StateAccepted && !displacementsWithin(rec, want, tol):
			if _, cerr := cl.Cancel(ctx, p.Name); cerr != nil {
				return nil, fmt.Errorf("cancel stale speculation %s: %w", p.Name, cerr)
			}
			c.tel.Counter("coord.proposals.stale_cancelled").Inc()
		default:
			return rec, nil
		}
	}
	return nil, fmt.Errorf("transaction %s: %d revisions all cancelled", base, maxProposalRevisions)
}

// cancelAccepted cancels the accepted transactions among recs (recs[i] is
// site i's, nil where it has none) on a context that survives the step
// context: the step is being torn down — possibly because its deadline
// already expired — and a cancel that is never delivered leaves an orphaned
// accepted transaction pinning server state.
func (c *Coordinator) cancelAccepted(ctx context.Context, recs []*core.Record) {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelDeliveryTimeout)
	defer cancel()
	accepted := func(i int) bool { return recs[i] != nil && recs[i].State == core.StateAccepted }
	c.eachSite(cctx, "coord.cancel", accepted, func(ctx context.Context, i int) error {
		_, err := c.sites[i].Client.Cancel(ctx, recs[i].Name)
		return err
	})
}

// proposeBarrier proposes ps everywhere and returns nil once every site
// holds its transaction, under the name left in ps[i].Name. held[i], when
// accepted, is site i's mispredicted speculation for the step, withdrawn in
// the envelope of its first propose (see proposeRevised); held is nil when
// there is none. Any abort — rejection or transport failure — first cancels
// the siblings that already accepted, and the speculations whose withdrawing
// envelope failed, or their transactions pin server-side state and collide
// with this step's replay after a resume (the negotiation behaviour §2.1
// calls out).
func (c *Coordinator) proposeBarrier(ctx context.Context, ps []*core.Proposal, held []*core.Record) error {
	recs := make([]*core.Record, len(ps))
	errs := make([]error, len(ps))
	c.eachSite(ctx, "coord.propose", nil, func(ctx context.Context, i int) error {
		withdraw := ""
		if held != nil && held[i] != nil && held[i].State == core.StateAccepted {
			withdraw = held[i].Name
		}
		recs[i], errs[i] = c.proposeRevised(ctx, c.sites[i].Client, ps[i], withdraw)
		return errs[i]
	})
	var rejected, failed error
	for i, s := range c.sites {
		switch {
		case errs[i] != nil:
			if failed == nil {
				failed = fmt.Errorf("site %s propose: %w", s.Name, errs[i])
			}
		case recs[i].State == core.StateRejected && rejected == nil:
			rejected = fmt.Errorf("site %s rejected proposal: %s: %w", s.Name, recs[i].Error, core.ErrRejected)
		}
	}
	abort := rejected // a rejection, when there is one, is the better explanation
	if abort == nil {
		abort = failed
	}
	if abort != nil {
		for i := range recs {
			if errs[i] != nil && held != nil {
				recs[i] = held[i] // nil or not accepted where nothing is held
			}
		}
		c.cancelAccepted(ctx, recs)
	}
	return abort
}

// siteOutcome is one site's execute outcome for a step.
type siteOutcome struct {
	rec *core.Record
	err error
}

// commit sends every site the step's commit envelope: the schedule's
// execute of cur, fused with the speculative propose of next when there is
// one. It returns the execute outcomes and, separately, the speculative
// propose records (nil where next is nil or the propose faulted): a site
// whose execute faulted may still have accepted next, and that transaction
// must be cancelled like any other.
func (c *Coordinator) commit(ctx context.Context, cur, next []*core.Proposal) ([]siteOutcome, []*core.Record) {
	span := "coord.execute"
	switch {
	case c.cfg.FastPath:
		span = "coord.faststep"
	case c.cfg.Pipeline:
		span = "coord.pipebatch"
	}
	execs := make([]siteOutcome, len(c.sites))
	specs := make([]*core.Record, len(c.sites))
	c.eachSite(ctx, span, nil, func(ctx context.Context, i int) (err error) {
		cl, o := c.sites[i].Client, &execs[i]
		switch {
		case c.cfg.FastPath:
			o.rec, o.err = cl.RunFast(ctx, cur[i])
			return o.err
		case next == nil:
			o.rec, o.err = cl.Execute(ctx, cur[i].Name)
			return o.err
		}
		o.rec, specs[i], err = cl.ExecuteAndPropose(ctx, cur[i].Name, next[i])
		if o.rec == nil {
			// With an execute record in hand the error belongs to the
			// speculative propose, which merely voids the speculation.
			o.err = err
		}
		return err
	})
	return execs, specs
}

// gather sums the executed sites' restoring forces into the global vector
// of n DOFs; the first site (in site order) that did not deliver a
// well-formed executed record fails the step.
func (c *Coordinator) gather(n int, execs []siteOutcome) ([]float64, error) {
	forces := make([]float64, n)
	for i, o := range execs {
		s := c.sites[i]
		switch {
		case o.err != nil:
			return nil, fmt.Errorf("site %s execute: %w", s.Name, o.err)
		case o.rec.State != core.StateExecuted:
			why := o.rec.Error
			if why == "" {
				why = string(o.rec.State)
			}
			return nil, fmt.Errorf("site %s transaction %s: %s: %w", s.Name, o.rec.Name, why, core.ErrFailed)
		case len(o.rec.Results) != 1 || len(o.rec.Results[0].Forces) != len(s.DOFs):
			return nil, fmt.Errorf("site %s returned malformed results", s.Name)
		}
		for j, g := range s.DOFs {
			forces[g] += o.rec.Results[0].Forces[j]
		}
	}
	return forces, nil
}

// restore performs one distributed restoring-force evaluation. Every
// stepping variant is a schedule of the three NTCP verbs over the same four
// pieces (proposals, proposeBarrier, commit, gather):
//
//	classic   barrier, then commit [execute(N)]
//	FastPath  no barrier,   commit [proposeAndExecute(N)]
//	Pipeline  barrier only when no usable speculation is held,
//	          commit [execute(N), propose(N+1) at the predicted displacement]
//
// Under Pipeline the barrier did not disappear, it moved a step earlier: no
// proposal is executed before every site has accepted it. Rollback rule:
// when the held speculation is unusable — a site did not accept it, or the
// actual displacement differs from the prediction by more than
// PipelineTolerance on any DOF — the step is re-proposed at the actual
// displacement behind the barrier, each accepted speculation cancelled in
// the envelope of its site's re-propose, so correctness never depends on
// the predictor and a wrong guess costs one envelope per site. The held
// speculation is always for this step: restore runs once per step, and the
// speculation it leaves names the next. Speculation is safe for the reason
// retries and checkpoint/resume are: names are deterministic and the server
// dedupes by name, so a wrong speculation is only ever cancelled, and one a
// crash orphans is walked past by proposeRevised on resume.
func (c *Coordinator) restore(ctx context.Context, step int, d []float64) ([]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.StepTimeout)
	defer cancel()

	held := c.spec
	c.spec = speculation{} // consumed, whatever happens next
	cur := held.proposals
	if held.usableFor(step, d, c.cfg.PipelineTolerance) {
		c.tel.Counter("coord.pipeline.hits").Inc()
	} else {
		if held.proposals != nil {
			c.tel.Counter("coord.pipeline.mispredicts").Inc()
		}
		cur = c.proposals(step, d)
		if !c.cfg.FastPath {
			if err := c.proposeBarrier(ctx, cur, held.recs); err != nil {
				return nil, err
			}
		}
	}

	var predicted []float64
	var next []*core.Proposal
	if c.cfg.Pipeline && step < c.cfg.Steps {
		predicted = predict(d, held.lastD)
		next = c.proposals(step+1, predicted)
	}
	execs, specs := c.commit(ctx, cur, next)
	forces, err := c.gather(len(d), execs)
	if err != nil {
		// The step is dead; take the speculative proposals accepted in its
		// envelopes down with it, or they orphan.
		c.cancelAccepted(ctx, specs)
		return nil, err
	}
	if next != nil {
		c.spec = speculation{
			step: step + 1, predicted: predicted, proposals: next, recs: specs,
			lastD: append(held.lastD[:0], d...),
		}
	}
	return forces, nil
}

// Run executes the distributed experiment and returns the response history
// and a run report. The history contains every committed step even when the
// run aborts early (the E2 experiment inspects exactly that); it is nil when
// the integrator never started.
func (c *Coordinator) Run(ctx context.Context) (*structural.History, *Report, error) {
	start := time.Now()
	n := c.cfg.M.Rows
	iota := structural.Ones(n)
	step := 0
	// A fresh run (or a resume) starts with no speculation in flight: any
	// speculative transaction a previous incarnation left behind is walked
	// past by proposeRevised.
	c.spec = speculation{}
	stopWorkers := c.startWorkers()
	defer stopWorkers()
	// stepCtx carries the current step's root span into the restoring-force
	// evaluation the integrator triggers; the Run loop (single goroutine)
	// reassigns it each step.
	stepCtx := ctx
	sys := &structural.System{
		M: c.cfg.M,
		C: c.cfg.C,
		K: c.cfg.K,
		R: func(d []float64) ([]float64, error) {
			return c.restore(stepCtx, step, d)
		},
	}
	report := &Report{ResumedFrom: -1}
	stepHist := c.tel.Histogram("coord.step.seconds", telemetry.DefaultLatencyBuckets...)
	// Pre-register the run's counters at zero so the Prometheus exposition
	// (and the obs aggregator's merged view) carries every coord.* series
	// from the first scrape, not only after the first increment.
	stepsCompleted := c.tel.Counter("coord.steps.completed")
	c.tel.Counter("coord.steps.failed")
	c.tel.Counter("coord.proposals.revised")
	c.tel.Counter("coord.resumes")
	c.tel.Counter("coord.checkpoints.written")
	if c.cfg.Pipeline {
		c.tel.Counter("coord.proposals.stale_cancelled")
		c.tel.Counter("coord.pipeline.hits")
		c.tel.Counter("coord.pipeline.mispredicts")
	}
	// coord.checkpoint.lag_steps is how many committed steps the newest
	// checkpoint trails by — the "how much would a crash now replay" number
	// the fleet dashboard watches. Meaningful only when checkpointing is on.
	ckLag := c.tel.Gauge("coord.checkpoint.lag_steps")
	lastCheckpointStep := -1
	// ckLog is the run's checkpoint log: opened before the first step of a
	// resumed run, created by step 0's checkpoint of a fresh one, closed
	// by finish.
	var ckLog *journal.Journal

	var hist *structural.History
	// finish closes the report — exactly once per run, so a failure's event
	// and telemetry snapshot are recorded once and the returned error is the
	// value the report carries. A non-nil err is the failure of failedStep.
	finish := func(failedStep int, err error) (*structural.History, *Report, error) {
		if err != nil {
			err = &stepError{step: failedStep, err: err}
		}
		if ckLog != nil {
			// Every record was synced when it was written.
			_ = ckLog.Close()
		}
		report.Elapsed = time.Since(start)
		report.Err = err
		report.Completed = err == nil
		report.FailedStep = failedStep
		// When clients share one telemetry registry their counters already
		// aggregate across sites; summing per-site Stats would multiply the
		// totals, so count each registry once.
		seen := make(map[*telemetry.Registry]bool)
		for _, s := range c.sites {
			if reg := s.Client.Telemetry(); seen[reg] {
				continue
			} else {
				seen[reg] = true
			}
			st := s.Client.Stats()
			report.Recovered += st.Recovered
			report.Retries += st.Retries
		}
		if err != nil {
			c.tel.Counter("coord.steps.failed").Inc()
			c.tel.Event("coord", "run.failed", map[string]any{
				"step": failedStep, "error": err.Error(),
			})
		}
		report.StepLatency = stepHist.Snapshot()
		report.Telemetry = c.tel.Snapshot()
		return hist, report, err
	}

	// lastTraceID remembers the root-span trace of the last committed step;
	// it lands in each checkpoint so a resumed run's spans can link back to
	// the timeline that died.
	lastTraceID := ""
	// saveCheckpoint journals the committed state after cadence-selected
	// steps. A write failure is a run failure: continuing without durability
	// would turn the next crash into the unrecoverable ending checkpointing
	// exists to prevent.
	saveCheckpoint := func(st structural.State) error {
		ck := c.cfg.Checkpoint
		if ck == nil {
			return nil
		}
		if lastCheckpointStep >= 0 {
			ckLag.Set(float64(st.Step - lastCheckpointStep))
		}
		if st.Step%ck.every() != 0 && st.Step != c.cfg.Steps && st.Step != 0 {
			return nil
		}
		snap, err := c.cfg.Integrator.(structural.Resumable).Snapshot()
		if err != nil {
			return err
		}
		tail := hist.States
		if k := ck.tail(); len(tail) > k {
			tail = tail[len(tail)-k:]
		}
		rec, err := json.Marshal(&Checkpoint{
			Version:         checkpointVersion,
			RunID:           c.cfg.RunID,
			Step:            st.Step,
			T:               st.T,
			Steps:           c.cfg.Steps,
			Dt:              c.cfg.Dt,
			Integrator:      c.cfg.Integrator.Name(),
			IntegratorState: snap,
			Tail:            tail,
			TraceID:         lastTraceID,
		})
		if err != nil {
			return fmt.Errorf("coord: encode checkpoint: %w", err)
		}
		switch {
		case ckLog == nil:
			// Step 0 of a fresh run: a stale log at the path is replaced
			// whole, atomically.
			ckLog, err = journal.Create(ck.Path, rec)
		case ckLog.Size() >= checkpointLogMax:
			err = ckLog.Snapshot(rec)
		default:
			err = ckLog.Append(rec)
		}
		if err != nil {
			return fmt.Errorf("coord: write checkpoint: %w", err)
		}
		report.Checkpoints++
		c.tel.Counter("coord.checkpoints.written").Inc()
		lastCheckpointStep = st.Step
		ckLag.Set(0)
		return nil
	}

	// beginStep opens step s's root span — the unit of the paper's latency
	// breakdown: every per-site NTCP span and (via OnStep) every
	// DAQ/streaming span of the step nests under it — and points the
	// restoring-force evaluation at it.
	beginStep := func(s int) *trace.Span {
		var span *trace.Span
		stepCtx, span = c.tracer.Start(ctx, "coord.step", trace.KindInternal)
		span.SetAttr("run", c.cfg.RunID)
		span.SetAttr("step", strconv.Itoa(s))
		step = s
		return span
	}
	// endStep closes the step's span; a state the integrator produced
	// (stepErr nil) is first committed: recorded, checkpointed, shown to the
	// observer.
	endStep := func(span *trace.Span, st structural.State, stepErr error) error {
		if stepErr == nil {
			hist.Record(st)
			report.StepsCompleted = st.Step
			if id := span.Context().TraceID.String(); id != "" {
				lastTraceID = id
			}
			if stepErr = saveCheckpoint(st); stepErr == nil && c.cfg.OnStep != nil {
				c.cfg.OnStep(stepCtx, st)
			}
		}
		span.SetError(stepErr)
		span.End()
		return stepErr
	}

	startStep := 1
	if cp := c.cfg.Resume; cp != nil {
		if ck := c.cfg.Checkpoint; ck != nil {
			var err error
			if ckLog, err = journal.Open(ck.Path); err != nil {
				return finish(cp.Step, fmt.Errorf("coord: open checkpoint log: %w", err))
			}
		}
		// Reconstruct the integrator at the checkpointed step instead of
		// initializing from rest; the loop then continues at cp.Step+1,
		// re-proposing under the same deterministic transaction names so the
		// sites' dedupe tables replay anything already decided.
		if err := c.cfg.Integrator.(structural.Resumable).Resume(sys, c.cfg.Dt, cp.IntegratorState); err != nil {
			return finish(cp.Step, err)
		}
		hist = structural.NewHistory(n, c.cfg.Steps)
		for _, st := range cp.Tail {
			hist.Record(st)
		}
		lastTraceID = cp.TraceID
		lastCheckpointStep = cp.Step
		report.ResumedFrom = cp.Step
		report.StepsCompleted = cp.Step
		startStep = cp.Step + 1
		c.tel.Counter("coord.resumes").Inc()
		c.tel.Event("coord", "run.resumed", map[string]any{
			"step": cp.Step, "trace": cp.TraceID,
		})
	} else {
		span := beginStep(0)
		st, err := c.cfg.Integrator.Init(sys, c.cfg.Dt, make([]float64, n), make([]float64, n),
			structural.GroundLoad(c.cfg.M, iota, c.cfg.Ground(0)))
		if err == nil {
			hist = structural.NewHistory(n, c.cfg.Steps)
		}
		if err := endStep(span, st, err); err != nil {
			return finish(0, err)
		}
	}

	for s := startStep; s <= c.cfg.Steps; s++ {
		if c.cfg.Interrupt != nil {
			// The chaos kill hook: abort here, before any network traffic for
			// step s, so the number of calls each fault injector has seen is a
			// pure function of the committed step count — the property that
			// makes a chaos scenario byte-replayable.
			if err := c.cfg.Interrupt(s); err != nil {
				return finish(s, err)
			}
		}
		span := beginStep(s)
		if cp := c.cfg.Resume; cp != nil && s == startStep {
			span.SetAttr("resume.from_step", strconv.Itoa(cp.Step))
			if cp.TraceID != "" {
				span.SetAttr("resume.trace", cp.TraceID)
			}
		}
		stepStart := time.Now()
		st, err := c.cfg.Integrator.Step(structural.GroundLoad(c.cfg.M, iota, c.cfg.Ground(s)))
		// The step histogram carries the step's root trace as its exemplar:
		// a fleet-wide p99 on coord.step.seconds resolves straight to the
		// `mostctl trace` timeline of the slowest step.
		stepHist.ObserveDurationExemplar(time.Since(stepStart), span.Context().TraceID)
		if err == nil {
			stepsCompleted.Inc()
		}
		if err := endStep(span, st, err); err != nil {
			return finish(s, err)
		}
	}
	return finish(0, nil)
}
