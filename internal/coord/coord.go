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
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"neesgrid/internal/core"
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
	// Iota is the influence vector (defaults to ones).
	Iota []float64
	// StepTimeout bounds one whole distributed step (all sites). Zero
	// means 60 s.
	StepTimeout time.Duration
	// OnStep observes each committed state (streaming, ingestion, UI).
	OnStep func(structural.State)
	// OnStepCtx is OnStep with the step's trace context attached: work done
	// inside it (DAQ scans, streaming publishes) parents under the step's
	// root span. When both are set only OnStepCtx is called.
	OnStepCtx func(context.Context, structural.State)
	// RunID prefixes transaction names so re-runs against long-lived
	// servers do not collide. Empty means "run".
	RunID string
	// FastPath uses the combined proposeAndExecute operation (§5 NTCP
	// performance work): one round trip per site per step instead of two.
	// The trade-off is the loss of the cross-site accept barrier — a site
	// rejecting a step can no longer prevent the other sites from having
	// executed theirs — so it is appropriate for rehearsed near-real-time
	// experiments whose proposals are known to satisfy site policy.
	FastPath bool
	// Pipeline overlaps consecutive steps (the §5 "ongoing work" protocol):
	// once step N's displacement is known, the coordinator fuses execute(N)
	// with a speculative propose(N+1) at the integrator's predicted
	// displacement into one batched signed envelope per site, so the
	// steady-state WAN cost of a step is one one-way-latency-bound round
	// trip instead of ~2.5 RTTs. When step N's forces move the trajectory
	// beyond PipelineTolerance, the speculative proposals are cancelled and
	// step N+1 is re-proposed at its actual displacement. Unlike FastPath,
	// the cross-site accept barrier is preserved: a proposal is never
	// executed before every site has accepted it. Defaults off so the
	// baseline E8 numbers stay comparable. Mutually exclusive with
	// FastPath.
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
	// Checkpoint, when non-nil, journals the coordinator's committed state
	// to an atomic snapshot file after every Checkpoint.Every steps. The
	// integrator must implement structural.Resumable. A checkpoint write
	// failure aborts the run: silently losing durability would turn the
	// next crash into exactly the unrecoverable step-1493 ending this
	// feature exists to prevent.
	Checkpoint *CheckpointConfig
	// Resume, when non-nil, starts the run from a checkpoint instead of
	// from rest: the integrator is reconstructed at Resume.Step and the
	// loop continues at Resume.Step+1, re-proposing through the normal
	// restore path — already-decided transactions at the sites replay from
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
	// Checkpoints is the number of snapshot files written during the run.
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
	// pipe carries the speculative-proposal state between consecutive
	// restore calls when Pipeline is on. Run resets it at start; the Run
	// loop is single-goroutine so no locking is needed.
	pipe pipeState
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

// siteOutcome is one site's response to a step.
type siteOutcome struct {
	site int
	rec  *core.Record
	err  error
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

// proposeRevised proposes p, walking past cancelled incarnations of the
// same transaction. A propose replayed against the dedupe table returns
// whatever record the name resolved to — including one a previous
// incarnation cancelled on its abort path. Executing a cancelled
// transaction is a conflict, so the coordinator deterministically bumps a
// revision suffix (base, base/r1, base/r2, …) until it reaches a live or
// fresh transaction. Every incarnation replays the same walk, so names
// stay a pure function of the fault history. On success p.Name holds the
// name actually proposed (the one execute and cancel must use).
func (c *Coordinator) proposeRevised(ctx context.Context, cl *core.Client, p *core.Proposal) (*core.Record, error) {
	base := p.Name
	for rev := 0; rev <= maxProposalRevisions; rev++ {
		p.Name = revisionName(base, rev)
		rec, err := cl.Propose(ctx, p)
		if err != nil || rec.State != core.StateCancelled {
			return rec, err
		}
		c.tel.Counter("coord.proposals.revised").Inc()
	}
	return nil, fmt.Errorf("transaction %s: %d revisions all cancelled", base, maxProposalRevisions)
}

// cancelAccepted cancels every accepted transaction in outcomes,
// concurrently (the abort path should cost one round trip, not
// O(sites × RTT)) and on a context that survives the step context:
// the step is being torn down — possibly because its deadline already
// expired — and a cancel that is never delivered leaves an orphaned
// accepted transaction pinning server state.
func (c *Coordinator) cancelAccepted(ctx context.Context, outcomes []siteOutcome, names []string) {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelDeliveryTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil || o.rec == nil || o.rec.State != core.StateAccepted {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sp := c.tracer.Start(cctx, "coord.cancel", trace.KindInternal)
			sp.SetAttr("site", c.sites[i].Name)
			_, err := c.sites[i].Client.Cancel(sctx, names[i])
			sp.SetError(err)
			sp.End()
		}(i)
	}
	wg.Wait()
}

// restore performs one distributed restoring-force evaluation: propose to
// every site, and if all accept, execute everywhere and gather forces.
// On any rejection the sibling transactions are cancelled (the negotiation
// behaviour §2.1 calls out).
func (c *Coordinator) restore(ctx context.Context, step *int, d []float64) ([]float64, error) {
	n := len(d)
	stepCtx, cancel := context.WithTimeout(ctx, c.cfg.StepTimeout)
	defer cancel()

	if c.cfg.FastPath {
		return c.restoreFast(stepCtx, *step, d, n)
	}
	if c.cfg.Pipeline {
		return c.restorePipelined(stepCtx, *step, d, n)
	}

	// Phase 1: propose everywhere in parallel.
	proposals := make([]*core.Proposal, len(c.sites))
	outcomes := make([]siteOutcome, len(c.sites))
	var wg sync.WaitGroup
	for i, s := range c.sites {
		local := make([]float64, len(s.DOFs))
		for j, g := range s.DOFs {
			local[j] = d[g]
		}
		proposals[i] = &core.Proposal{
			Name: fmt.Sprintf("%s/step-%d/%s", c.cfg.RunID, *step, s.Name),
			Actions: []core.Action{{
				ControlPoint:  s.ControlPoint,
				Displacements: local,
			}},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pctx, sp := c.tracer.Start(stepCtx, "coord.propose", trace.KindInternal)
			sp.SetAttr("site", c.sites[i].Name)
			rec, err := c.proposeRevised(pctx, c.sites[i].Client, proposals[i])
			sp.SetError(err)
			sp.End()
			outcomes[i] = siteOutcome{site: i, rec: rec, err: err}
		}(i)
	}
	wg.Wait()

	// names[i] is the transaction name site i actually holds — the base
	// name or a revision — and the one phase 2 and the abort path must use.
	names := make([]string, len(c.sites))
	for i := range proposals {
		names[i] = proposals[i].Name
	}

	var rejected *siteOutcome
	var abortErr error
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil && abortErr == nil {
			abortErr = fmt.Errorf("site %s propose: %w", c.sites[o.site].Name, o.err)
		}
		if o.err == nil && o.rec.State == core.StateRejected && rejected == nil {
			rejected = o
		}
	}
	if rejected != nil || abortErr != nil {
		// Any phase-1 abort — rejection or transport failure — must cancel
		// the siblings that already accepted, or their transactions pin
		// server-side state and collide with this step's replay after a
		// resume.
		c.cancelAccepted(stepCtx, outcomes, names)
		if rejected != nil {
			return nil, fmt.Errorf("site %s rejected proposal: %s: %w",
				c.sites[rejected.site].Name, rejected.rec.Error, core.ErrRejected)
		}
		return nil, abortErr
	}

	// Phase 2: execute everywhere in parallel.
	for i := range c.sites {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ectx, sp := c.tracer.Start(stepCtx, "coord.execute", trace.KindInternal)
			sp.SetAttr("site", c.sites[i].Name)
			rec, err := c.sites[i].Client.Execute(ectx, proposals[i].Name)
			sp.SetError(err)
			sp.End()
			outcomes[i] = siteOutcome{site: i, rec: rec, err: err}
		}(i)
	}
	wg.Wait()

	forces := make([]float64, n)
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, fmt.Errorf("site %s execute: %w", c.sites[o.site].Name, o.err)
		}
		if o.rec.State != core.StateExecuted {
			return nil, fmt.Errorf("site %s transaction %s: %s: %w",
				c.sites[o.site].Name, o.rec.Name, o.rec.Error, core.ErrFailed)
		}
		s := c.sites[o.site]
		if len(o.rec.Results) != 1 || len(o.rec.Results[0].Forces) != len(s.DOFs) {
			return nil, fmt.Errorf("site %s returned malformed results", s.Name)
		}
		for j, g := range s.DOFs {
			forces[g] += o.rec.Results[0].Forces[j]
		}
	}
	return forces, nil
}

// restoreFast is the single-round-trip variant of restore: every site gets
// one proposeAndExecute call. Rejections and failures still abort the step.
func (c *Coordinator) restoreFast(ctx context.Context, step int, d []float64, n int) ([]float64, error) {
	outcomes := make([]siteOutcome, len(c.sites))
	var wg sync.WaitGroup
	for i, s := range c.sites {
		local := make([]float64, len(s.DOFs))
		for j, g := range s.DOFs {
			local[j] = d[g]
		}
		p := &core.Proposal{
			Name: fmt.Sprintf("%s/step-%d/%s", c.cfg.RunID, step, s.Name),
			Actions: []core.Action{{
				ControlPoint:  s.ControlPoint,
				Displacements: local,
			}},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fctx, sp := c.tracer.Start(ctx, "coord.faststep", trace.KindInternal)
			sp.SetAttr("site", c.sites[i].Name)
			rec, err := c.sites[i].Client.RunFast(fctx, p)
			sp.SetError(err)
			sp.End()
			outcomes[i] = siteOutcome{site: i, rec: rec, err: err}
		}(i)
	}
	wg.Wait()

	forces := make([]float64, n)
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			return nil, fmt.Errorf("site %s fast step: %w", c.sites[o.site].Name, o.err)
		}
		s := c.sites[o.site]
		if len(o.rec.Results) != 1 || len(o.rec.Results[0].Forces) != len(s.DOFs) {
			return nil, fmt.Errorf("site %s returned malformed results", s.Name)
		}
		for j, g := range s.DOFs {
			forces[g] += o.rec.Results[0].Forces[j]
		}
	}
	return forces, nil
}

// Run executes the distributed experiment and returns the response history
// and a run report. The history contains every committed step even when the
// run aborts early (the E2 experiment inspects exactly that).
func (c *Coordinator) Run(ctx context.Context) (*structural.History, *Report, error) {
	start := time.Now()
	n := c.cfg.M.Rows
	iota := c.cfg.Iota
	if iota == nil {
		iota = structural.Ones(n)
	}
	step := 0
	// A fresh run (or a resume) starts with no speculation in flight: any
	// speculative transaction a previous incarnation left behind is walked
	// past by the revision/mismatch guards in the propose path.
	c.pipe = pipeState{}
	// stepCtx carries the current step's root span into the restoring-force
	// evaluation the integrator triggers; the Run loop (single goroutine)
	// reassigns it each step.
	stepCtx := ctx
	sys := &structural.System{
		M: c.cfg.M,
		C: c.cfg.C,
		K: c.cfg.K,
		R: func(d []float64) ([]float64, error) {
			return c.restore(stepCtx, &step, d)
		},
	}
	report := &Report{ResumedFrom: -1}
	stepHist := c.tel.Histogram("coord.step.seconds", telemetry.DefaultLatencyBuckets...)
	// Pre-register the run's counters at zero so the Prometheus exposition
	// (and the obs aggregator's merged view) carries every coord.* series
	// from the first scrape, not only after the first increment.
	c.tel.Counter("coord.steps.completed")
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
	finish := func(err error, failedStep int) (*structural.History, *Report, error) {
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
		return nil, report, err
	}

	// notify routes each committed state to OnStepCtx (trace-aware) or
	// OnStep, whichever the caller wired.
	notify := func(sctx context.Context, st structural.State) {
		if c.cfg.OnStepCtx != nil {
			c.cfg.OnStepCtx(sctx, st)
			return
		}
		if c.cfg.OnStep != nil {
			c.cfg.OnStep(st)
		}
	}

	hist := structural.NewHistory(n, c.cfg.Steps)

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
		if err := SaveCheckpoint(ck.Path, &Checkpoint{
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
		}); err != nil {
			return err
		}
		report.Checkpoints++
		c.tel.Counter("coord.checkpoints.written").Inc()
		lastCheckpointStep = st.Step
		ckLag.Set(0)
		return nil
	}

	startStep := 1
	if cp := c.cfg.Resume; cp != nil {
		// Reconstruct the integrator at the checkpointed step instead of
		// initializing from rest; the loop then continues at cp.Step+1,
		// re-proposing under the same deterministic transaction names so the
		// sites' dedupe tables replay anything already decided.
		if err := c.cfg.Integrator.(structural.Resumable).Resume(sys, c.cfg.Dt, cp.IntegratorState); err != nil {
			_, rep, ferr := finish(&stepError{step: cp.Step, err: err}, cp.Step)
			return nil, rep, ferr
		}
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
		d0 := make([]float64, n)
		v0 := make([]float64, n)
		sctx, span := c.tracer.Start(ctx, "coord.step", trace.KindInternal)
		span.SetAttr("run", c.cfg.RunID)
		span.SetAttr("step", "0")
		stepCtx = sctx
		st, err := c.cfg.Integrator.Init(sys, c.cfg.Dt, d0, v0,
			structural.GroundLoad(c.cfg.M, iota, c.cfg.Ground(0)))
		if err != nil {
			span.SetError(err)
			span.End()
			_, rep, err := finish(&stepError{step: 0, err: err}, 0)
			return nil, rep, err
		}
		hist.Record(st)
		if id := span.Context().TraceID.String(); id != "" {
			lastTraceID = id
		}
		if cerr := saveCheckpoint(st); cerr != nil {
			span.SetError(cerr)
			span.End()
			_, rep, ferr := finish(&stepError{step: 0, err: cerr}, 0)
			return hist, rep, ferr
		}
		notify(sctx, st)
		span.End()
	}

	for s := startStep; s <= c.cfg.Steps; s++ {
		step = s
		if c.cfg.Interrupt != nil {
			// The chaos kill hook: abort here, before any network traffic for
			// step s, so the number of calls each fault injector has seen is a
			// pure function of the committed step count — the property that
			// makes a chaos scenario byte-replayable.
			if err := c.cfg.Interrupt(s); err != nil {
				_, rep, ferr := finish(&stepError{step: s, err: err}, s)
				return hist, rep, ferr
			}
		}
		// One root span per time step: the unit of the paper's latency
		// breakdown. Every per-site NTCP span and (via OnStepCtx) every
		// DAQ/streaming span of this step nests under it.
		sctx, span := c.tracer.Start(ctx, "coord.step", trace.KindInternal)
		span.SetAttr("run", c.cfg.RunID)
		span.SetAttr("step", strconv.Itoa(s))
		if cp := c.cfg.Resume; cp != nil && s == startStep {
			span.SetAttr("resume.from_step", strconv.Itoa(cp.Step))
			if cp.TraceID != "" {
				span.SetAttr("resume.trace", cp.TraceID)
			}
		}
		stepCtx = sctx
		stepStart := time.Now()
		st, err := c.cfg.Integrator.Step(structural.GroundLoad(c.cfg.M, iota, c.cfg.Ground(s)))
		// The step histogram carries the step's root trace as its exemplar:
		// a fleet-wide p99 on coord.step.seconds resolves straight to the
		// `mostctl trace` timeline of the slowest step.
		stepHist.ObserveDurationExemplar(time.Since(stepStart), span.Context().TraceID)
		if err != nil {
			span.SetError(err)
			span.End()
			// One stepError, reported through finish exactly once, so the
			// failure event and telemetry snapshot are recorded once and the
			// returned error is the same value the report carries.
			_, rep, ferr := finish(&stepError{step: s, err: err}, s)
			return hist, rep, ferr
		}
		c.tel.Counter("coord.steps.completed").Inc()
		hist.Record(st)
		report.StepsCompleted = s
		if id := span.Context().TraceID.String(); id != "" {
			lastTraceID = id
		}
		if cerr := saveCheckpoint(st); cerr != nil {
			span.SetError(cerr)
			span.End()
			_, rep, ferr := finish(&stepError{step: s, err: cerr}, s)
			return hist, rep, ferr
		}
		notify(sctx, st)
		span.End()
	}
	_, rep, _ := finish(nil, 0)
	rep.StepsCompleted = c.cfg.Steps
	return hist, rep, nil
}

// IsRejection reports whether a run error came from a site policy
// rejection.
func IsRejection(err error) bool { return errors.Is(err, core.ErrRejected) }

// StepOf extracts the failing step from a run error (0 if unknown).
func StepOf(err error) int {
	var se *stepError
	if errors.As(err, &se) {
		return se.step
	}
	return 0
}
