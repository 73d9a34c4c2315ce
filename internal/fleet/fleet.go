package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/core"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
)

// Admission errors. They are terminal for the request, not for the
// scheduler: the caller resubmits later or to another tenant.
var (
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	ErrQueueFull     = errors.New("fleet: tenant queue full")
	ErrStopped       = errors.New("fleet: scheduler stopped")
)

// DefaultMaxQueued bounds a tenant's backlog when the tenant declares none.
const DefaultMaxQueued = 8

// Tenant is one admitted principal: a research group submitting runs.
type Tenant struct {
	Name string
	// Weight is the tenant's fair-share weight: how many consecutive
	// grants it may take when its turn in the rotation comes (min 1).
	Weight int
	// MaxQueued bounds the tenant's waiting jobs (admission control);
	// 0 means DefaultMaxQueued.
	MaxQueued int
}

// Request describes one experiment submission.
type Request struct {
	Tenant string `json:"tenant"`
	// Name labels the run; the job ID (and coordinator RunID) is derived
	// from it plus the tenant and a submission sequence, so two tenants
	// reusing the same name never collide on shared servers or on disk.
	Name string `json:"name"`
	// Slots is how many pooled sites to lease (1–3: the MOST frame has a
	// left column, a middle frame, and a right column). Default 1.
	Slots int `json:"slots"`
	// Steps is the integration step count. Default 120.
	Steps int `json:"steps"`
	// DAQEvery scans site DAQs every N steps (0 disables).
	DAQEvery int `json:"daq_every,omitempty"`
	// FailAt, when > 0, schedules a fatal network outage before that step
	// and disables retries — the harness hook for exercising the
	// release-on-failure path.
	FailAt int `json:"fail_at,omitempty"`
}

// JobState is the lifecycle of a submitted job.
type JobState string

// Job lifecycle: Queued → Running → one of Done / Failed / Cancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Job is one admitted experiment. Fields are guarded by the scheduler's
// lock; read them through View or the scheduler's accessors.
type Job struct {
	ID     string
	Tenant string
	Name   string
	Slots  int
	Steps  int

	// Seq is the grant sequence number (0-based, fleet-wide): the order in
	// which the scheduler leased slots to jobs. -1 while queued.
	Seq int
	// StorePrefix is the job's tenant-scoped directory under the store
	// root ("" when the scheduler runs storeless).
	StorePrefix string

	state     JobState
	stepsDone int
	err       error
	cancelled bool
	cancel    context.CancelFunc
	submitted time.Time
	finished  time.Time
	daqEvery  int
	failAt    int
}

// JobView is the JSON-safe snapshot of a Job.
type JobView struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	Name      string   `json:"name"`
	Slots     int      `json:"slots"`
	Seq       int      `json:"seq"`
	State     JobState `json:"state"`
	StepsDone int      `json:"steps_done"`
	Err       string   `json:"err,omitempty"`
	Store     string   `json:"store,omitempty"`
}

// Config wires a Scheduler.
type Config struct {
	// Pool is the shared site pool jobs lease from (required).
	Pool *Pool
	// Tenants declares the admitted principals in fair-share rotation
	// order (required, at least one).
	Tenants []Tenant
	// StoreRoot is the base directory for tenant-scoped job state
	// (checkpoints); "" disables checkpointing.
	StoreRoot string
	// Agg, when set, receives every finished job's merged roll-up as the
	// pushed source <tenant>/<jobID>.
	Agg *obs.Aggregator
	// Registry receives the scheduler's fleet.* telemetry; nil means a
	// private one. Share it with the Pool's so fleetd exports one plane.
	Registry *telemetry.Registry
}

// Scheduler admits jobs against per-tenant quotas, orders them by weighted
// round-robin across tenants (FIFO within a tenant), leases pool slots to
// the jobs it grants, and runs each as a most.BuildShared experiment.
// Grants only happen after Start, so a batch submitted beforehand is
// ordered purely by the fair-share policy — the property the CI smoke
// asserts.
type Scheduler struct {
	cfg Config
	reg *telemetry.Registry

	mu      sync.Mutex
	queues  map[string][]*Job
	jobs    map[string]*Job
	order   []*Job // submission order, for listings
	grants  []*Job // grant order (by Seq)
	cursor  int    // next tenant index in the WRR rotation
	nextSub int
	nextSeq int
	running bool
	stopped bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewScheduler validates the config and pre-registers every fleet.* series
// at zero, so a fleet that never rejected a job still exports
// fleet.jobs.rejected = 0 rather than omitting the series.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Pool == nil {
		return nil, errors.New("fleet: scheduler needs a pool")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("fleet: scheduler needs at least one tenant")
	}
	s := &Scheduler{
		cfg:    cfg,
		reg:    telemetry.OrNew(cfg.Registry),
		queues: make(map[string][]*Job),
		jobs:   make(map[string]*Job),
	}
	for _, t := range cfg.Tenants {
		if t.Name == "" {
			return nil, errors.New("fleet: tenant needs a name")
		}
		if _, dup := s.queues[t.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate tenant %q", t.Name)
		}
		s.queues[t.Name] = nil
	}
	for _, c := range []string{
		"fleet.jobs.submitted", "fleet.jobs.rejected", "fleet.jobs.completed",
		"fleet.jobs.failed", "fleet.jobs.cancelled",
		"fleet.rollups.pushed",
	} {
		s.reg.Counter(c)
	}
	s.reg.Gauge("fleet.jobs.queued")
	s.reg.Gauge("fleet.jobs.running")
	return s, nil
}

// Submit admits one request: unknown tenants and full queues are rejected
// (bounded-backlog admission control), everything else is enqueued FIFO
// behind the tenant's earlier jobs. Before Start, submissions only queue —
// the first grants happen when the scheduler starts.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if req.Slots <= 0 {
		req.Slots = 1
	}
	if req.Steps <= 0 {
		req.Steps = 120
	}
	if req.Name == "" {
		req.Name = "job"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		s.reg.Counter("fleet.jobs.rejected").Inc()
		return nil, ErrStopped
	}
	tenant, ok := s.tenantLocked(req.Tenant)
	if !ok {
		s.reg.Counter("fleet.jobs.rejected").Inc()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, req.Tenant)
	}
	if req.Slots > 3 || req.Slots > s.cfg.Pool.Size() {
		s.reg.Counter("fleet.jobs.rejected").Inc()
		return nil, fmt.Errorf("fleet: %d slots unsatisfiable (pool has %d, frame takes ≤3)",
			req.Slots, s.cfg.Pool.Size())
	}
	maxQ := tenant.MaxQueued
	if maxQ <= 0 {
		maxQ = DefaultMaxQueued
	}
	if len(s.queues[tenant.Name]) >= maxQ {
		s.reg.Counter("fleet.jobs.rejected").Inc()
		return nil, fmt.Errorf("%w: %q has %d queued (max %d)",
			ErrQueueFull, tenant.Name, len(s.queues[tenant.Name]), maxQ)
	}
	s.nextSub++
	job := &Job{
		ID:        fmt.Sprintf("%s-%s-%d", tenant.Name, req.Name, s.nextSub),
		Tenant:    tenant.Name,
		Name:      req.Name,
		Slots:     req.Slots,
		Steps:     req.Steps,
		Seq:       -1,
		state:     StateQueued,
		submitted: time.Now(),
	}
	if s.cfg.StoreRoot != "" {
		job.StorePrefix = filepath.Join(s.cfg.StoreRoot, tenant.Name, job.ID)
	}
	job.daqEvery = req.DAQEvery
	job.failAt = req.FailAt
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
	s.queues[tenant.Name] = append(s.queues[tenant.Name], job)
	s.reg.Counter("fleet.jobs.submitted").Inc()
	s.reg.Gauge("fleet.jobs.queued").Add(1)
	s.scheduleLocked()
	return job, nil
}

// tenantLocked finds a declared tenant by name.
func (s *Scheduler) tenantLocked(name string) (Tenant, bool) {
	for _, t := range s.cfg.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return Tenant{}, false
}

// Start begins granting. The scheduler is a runtime.Component so fleetd
// supervises it beside the pool and the aggregator.
func (s *Scheduler) Start(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.stopped {
		return errors.New("fleet: scheduler already started")
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.running = true
	s.scheduleLocked()
	return nil
}

// Stop ends admission, cancels running jobs, discards the queues, and
// waits (bounded by ctx) for the runners to drain.
func (s *Scheduler) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.running = false
	for name, q := range s.queues {
		for _, job := range q {
			job.state = StateCancelled
			job.finished = time.Now()
			s.reg.Counter("fleet.jobs.cancelled").Inc()
			s.reg.Gauge("fleet.jobs.queued").Add(-1)
		}
		s.queues[name] = nil
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: scheduler drain: %w", ctx.Err())
	}
}

// Healthy reports nil while the scheduler is admitting and granting.
func (s *Scheduler) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return errors.New("fleet: scheduler stopped")
	}
	if !s.running {
		return errors.New("fleet: scheduler not started")
	}
	return nil
}

// Cancel withdraws a job: a queued job is removed, a running one has its
// run context cancelled (the runner then records it as cancelled).
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("fleet: no such job %q", id)
	}
	switch job.state {
	case StateQueued:
		q := s.queues[job.Tenant]
		for i, j := range q {
			if j == job {
				s.queues[job.Tenant] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		job.state = StateCancelled
		job.finished = time.Now()
		s.reg.Counter("fleet.jobs.cancelled").Inc()
		s.reg.Gauge("fleet.jobs.queued").Add(-1)
		return nil
	case StateRunning:
		job.cancelled = true
		if job.cancel != nil {
			job.cancel()
		}
		return nil
	default:
		return fmt.Errorf("fleet: job %q already %s", id, job.state)
	}
}

// Job returns one job's snapshot.
func (s *Scheduler) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return job.viewLocked(), true
}

// Jobs returns every job in submission order.
func (s *Scheduler) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, job := range s.order {
		out = append(out, job.viewLocked())
	}
	return out
}

// GrantOrder returns the tenants of granted jobs in grant (Seq) order —
// the observable the fair-share tests and the CI smoke assert on.
func (s *Scheduler) GrantOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.grants))
	for _, job := range s.grants {
		out = append(out, job.Tenant)
	}
	return out
}

// viewLocked snapshots a job under the scheduler lock.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, Name: j.Name, Slots: j.Slots,
		Seq: j.Seq, State: j.state, StepsDone: j.stepsDone, Store: j.StorePrefix,
	}
	if j.err != nil {
		v.Err = j.err.Error()
	}
	return v
}

// scheduleLocked runs grant passes until one grants nothing. Each pass
// walks the tenant rotation from the cursor; a tenant with queued work
// whose head job fits the free slots gets up to Weight consecutive
// grants, then the cursor advances past it — weighted round-robin across
// tenants, FIFO within one. A tenant whose head does not fit is skipped
// (its turn comes again next pass), so a wide job cannot starve the
// rotation, only its own queue.
func (s *Scheduler) scheduleLocked() {
	if !s.running || s.stopped {
		return
	}
	for {
		granted := false
		// The pass walks from where the previous pass's cursor left off;
		// idx must come from the pass's own start, not the live cursor,
		// which advances on every grant.
		start := s.cursor
		for i := 0; i < len(s.cfg.Tenants); i++ {
			idx := (start + i) % len(s.cfg.Tenants)
			t := s.cfg.Tenants[idx]
			burst := t.Weight
			if burst < 1 {
				burst = 1
			}
			took := 0
			for took < burst && len(s.queues[t.Name]) > 0 {
				job := s.queues[t.Name][0]
				sites, err := s.cfg.Pool.Lease(job.Slots)
				if err != nil {
					break // head does not fit; tenant waits, rotation moves on
				}
				s.queues[t.Name] = s.queues[t.Name][1:]
				job.Seq = s.nextSeq
				s.nextSeq++
				s.grants = append(s.grants, job)
				job.state = StateRunning
				ctx, cancel := context.WithCancel(s.baseCtx)
				job.cancel = cancel
				s.reg.Gauge("fleet.jobs.queued").Add(-1)
				s.reg.Gauge("fleet.jobs.running").Add(1)
				s.wg.Add(1)
				go s.run(ctx, job, sites)
				granted = true
				took++
			}
			if took > 0 {
				s.cursor = (idx + 1) % len(s.cfg.Tenants)
			}
		}
		if !granted {
			return
		}
	}
}

// run executes one granted job over its leased sites, pushes the run's
// merged roll-up to the fleet aggregator, and returns the slots.
func (s *Scheduler) run(ctx context.Context, job *Job, sites []*most.Site) {
	defer s.wg.Done()
	results, runErr := s.runExperiment(ctx, job, sites)

	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.cfg.Pool.Release(sites) // release even (especially) on failure
	s.reg.Gauge("fleet.jobs.running").Add(-1)
	job.finished = time.Now()
	switch {
	case job.cancelled || (runErr != nil && errors.Is(runErr, context.Canceled)):
		job.state = StateCancelled
		job.err = runErr
		s.reg.Counter("fleet.jobs.cancelled").Inc()
	case runErr != nil:
		job.state = StateFailed
		job.err = runErr
		s.reg.Counter("fleet.jobs.failed").Inc()
	default:
		job.state = StateDone
		s.reg.Counter("fleet.jobs.completed").Inc()
	}
	if results != nil && results.Report != nil {
		job.stepsDone = results.Report.StepsCompleted
	}
	s.scheduleLocked() // freed slots go to the next head in rotation
}

// runExperiment is the unlocked body of a job run: build the shared-site
// experiment under the tenant's identity, run it, scrape its roll-up, and
// push that to the fleet plane. The experiment's Stop (which revokes the
// tenant's identity at every leased slot) always runs.
func (s *Scheduler) runExperiment(ctx context.Context, job *Job, sites []*most.Site) (*most.Results, error) {
	spec := most.Spec{
		Name:     job.ID,
		Frame:    frameFor(sites, job.Steps),
		Steps:    job.Steps,
		Retry:    core.DefaultRetry,
		DAQEvery: job.daqEvery,
	}
	if job.failAt > 0 {
		// The release-on-failure hook: a hard outage the default retry
		// policy cannot ride out would stall for its full backoff budget,
		// so the failing job runs retry-less, like the paper's public-run
		// coordinator.
		spec.Retry = core.NoRetry
		spec.Faults = []most.Fault{{Step: job.failAt, Fatal: true}}
	}
	if job.StorePrefix != "" {
		if err := os.MkdirAll(job.StorePrefix, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: job store: %w", err)
		}
		spec.Checkpoint = &coord.CheckpointConfig{
			Path:  filepath.Join(job.StorePrefix, "checkpoint.log"),
			Every: 25,
		}
	}
	exp, err := most.BuildShared(spec, s.cfg.Pool.CA(), s.cfg.Pool.Trust(), job.Tenant, sites)
	if err != nil {
		return nil, err
	}
	results, err := exp.Run(ctx)
	if err == nil && results.Err != nil {
		err = results.Err
	}
	s.pushRollup(ctx, job, exp)
	if stopErr := exp.Stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	return results, err
}

// pushRollup takes a final scrape of the experiment's aggregator (the
// coordinator-side registry — shared site registries belong to the pool's
// scrape plane, not to any one run) and pushes the merged snapshot to Agg.
// The source name is tenant-scoped, so the fleet view lists tenant/jobID
// rows.
func (s *Scheduler) pushRollup(ctx context.Context, job *Job, exp *most.Experiment) {
	if s.cfg.Agg == nil {
		return
	}
	scrapeCtx, cancel := context.WithTimeout(contextOrBackground(ctx), 2*time.Second)
	defer cancel()
	exp.Obs().ScrapeOnce(scrapeCtx)
	s.cfg.Agg.Push(job.Tenant+"/"+job.ID, exp.Obs().Merged())
	s.reg.Counter("fleet.rollups.pushed").Inc()
}

// contextOrBackground shields the final scrape/push from an already-
// cancelled run context: a cancelled job still reports its partial
// roll-up.
func contextOrBackground(ctx context.Context) context.Context {
	if ctx == nil || ctx.Err() != nil {
		return context.Background()
	}
	return ctx
}

// frameFor maps leased slots onto the MOST frame's three column
// positions: slot stiffnesses become LeftK, MidK, RightK in lease order.
// The story mass is fixed at 1000 kg, which with the default slot
// stiffness keeps the explicit integration grid stable at Δt = 0.01 s for
// any 1–3 slot lease.
func frameFor(sites []*most.Site, steps int) structural.FrameConfig {
	f := structural.FrameConfig{
		Mass:         1000,
		Dt:           0.01,
		Steps:        steps,
		DampingRatio: 0.02,
	}
	for i, s := range sites {
		switch i {
		case 0:
			f.LeftK = s.Spec.K
		case 1:
			f.MidK = s.Spec.K
		case 2:
			f.RightK = s.Spec.K
		}
	}
	return f
}
