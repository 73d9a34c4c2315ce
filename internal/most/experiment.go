package most

import (
	"context"
	"fmt"
	"time"

	"neesgrid/internal/collab"
	"neesgrid/internal/coord"
	"neesgrid/internal/core"
	"neesgrid/internal/groundmotion"
	"neesgrid/internal/gsi"
	"neesgrid/internal/obs"
	"neesgrid/internal/runtime"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// Fault is one scheduled network fault: before step Step executes, Count
// transport failures are queued at site Site ("" = every site). A fault
// with Fatal set switches the site into a hard outage instead — the error
// the public MOST run could not survive.
type Fault struct {
	Step  int
	Site  string
	Count int
	Fatal bool
}

// Spec describes a full distributed hybrid experiment.
type Spec struct {
	Name  string
	Sites []SiteSpec
	// Frame supplies mass/damping/initial stiffness; per-site elastic K
	// from SiteSpec must sum to Frame.TotalK() for consistency.
	Frame structural.FrameConfig
	// Ground is the input motion; nil generates the El Centro-like record
	// on the Frame grid.
	Ground *groundmotion.Record
	// Steps overrides Frame.Steps when > 0.
	Steps int
	// Retry is the coordinator's NTCP retry policy. The dry run and E1 use
	// core.DefaultRetry; the public-run reproduction uses core.NoRetry to
	// match the coordinator that "had not been coded to take advantage of
	// all the fault-tolerance features".
	Retry core.RetryPolicy
	// Faults is the deterministic fault schedule.
	Faults []Fault
	// Integrator is the time-stepping scheme; nil = explicit Newmark.
	Integrator structural.Integrator
	// FastPath uses the single-round-trip NTCP operation per site per
	// step (the §5 performance work).
	FastPath bool
	// Pipeline overlaps adjacent steps: execute(N) and a speculative
	// propose(N+1) travel in one batched signed envelope per site, with a
	// cancel-and-repropose rollback when the prediction misses (the other
	// §5 direction; see coord.Config.Pipeline). Mutually exclusive with
	// FastPath.
	Pipeline bool
	// Archive, when non-nil, wires each site's DAQ through a spool
	// directory into the repository while the run is in progress — the
	// §3.2 incremental-archival path (requires DAQEvery > 0).
	Archive *ArchiveConfig
	// DAQEvery scans site DAQs every N steps (0 disables DAQ sampling).
	DAQEvery int
	// OnStep observes committed states.
	OnStep func(structural.State)
	// SLOs are the run's service-level objectives, evaluated continuously
	// by the experiment's observability aggregator (see Experiment.Obs).
	// A breach is latched into the aggregator's verdict — and into the
	// archived <name>-metrics.json roll-up — even if the run recovers.
	SLOs []obs.SLO
	// Checkpoint, Resume, and Interrupt pass through to the coordinator
	// (coord.Config): per-step atomic snapshots, starting mid-run from a
	// snapshot, and the deterministic pre-step abort hook. The chaos engine
	// mutates these between coordinator incarnations while the sites stay
	// up — the shape of a real coordinator crash in a live topology.
	Checkpoint *coord.CheckpointConfig
	Resume     *coord.Checkpoint
	Interrupt  func(step int) error
}

// Results collects everything a run produced.
type Results struct {
	History *structural.History
	Report  *coord.Report
	// InjectedFaults is the number of transport errors faultnet produced.
	InjectedFaults int
	// DAQScans is the total DAQ scans across sites.
	DAQScans int
	// ArchiveErr records a mid-run ingestion failure (the run itself is
	// not aborted for archival problems — the stream and local spool
	// remain the fallback, as in the paper's best-effort design).
	ArchiveErr error
	Err        error
}

// Experiment is a built, running topology.
type Experiment struct {
	Spec  Spec
	Sites []*Site
	CA    *gsi.Authority
	Trust *gsi.TrustStore
	Cred  *gsi.Credential // coordinator credential
	// Viewer aggregates every site's stream for the CHEF data viewers.
	Viewer *collab.Viewer
	// Telemetry is the coordinator-side registry: step latency from coord,
	// NTCP round-trip histograms and recovery counters from every site
	// client, and fault-injection counters from every site's injector — the
	// whole WAN picture in one snapshot. (Server-side metrics live in each
	// Site.Telemetry.)
	Telemetry *telemetry.Registry
	// Tracer records coordinator-side spans — the per-step root span, the
	// per-site propose/execute client spans, and the DAQ readback publish —
	// into TraceRecorder. Site-side spans live in each Site.SpanRecorder;
	// both halves share trace IDs, so a merged per-step timeline is a join
	// over the recorders.
	Tracer        *trace.Tracer
	TraceRecorder *trace.Recorder

	// obsAgg is the experiment-wide observability aggregator: one source
	// per site (scraping the container's /metrics endpoint over HTTP, the
	// same path a remote operator uses) plus the coordinator-side registry
	// in-process. Build wires it but does NOT start its scrape loop —
	// benchmarked runs must not pay a background scraper; callers that want
	// live aggregation start it (mostctl top, the obs CI smoke) or call
	// ScrapeOnce for a point-in-time fleet view. Run always takes a final
	// scrape so the archived roll-up reflects the finished run.
	obsAgg *obs.Aggregator

	arch *archive
	// sup supervises the topology: each site's component tree nests under
	// it, along with the viewer feeds and the archive connection, so one
	// Stop drains everything in reverse build order with deadlines and
	// error reporting.
	sup *runtime.Supervisor
	// stopFeeds holds the viewer-feed components so Run can drain the
	// monitoring pipeline at end-of-run; each is once-wrapped, so the
	// supervisor's later Stop is a no-op for already-drained feeds.
	stopFeeds []runtime.Component
}

// newExperiment allocates the coordinator-side state shared by Build and
// BuildShared.
func newExperiment(spec Spec, ca *gsi.Authority, trust *gsi.TrustStore, cred *gsi.Credential) *Experiment {
	exp := &Experiment{Spec: spec, CA: ca, Trust: trust, Cred: cred,
		Viewer: collab.NewViewer(0), Telemetry: telemetry.NewRegistry(),
		TraceRecorder: trace.NewRecorder(0),
		sup:           runtime.NewSupervisor("experiment:" + spec.Name)}
	exp.Tracer = trace.NewTracer("coordinator", exp.TraceRecorder)
	return exp
}

// wireSiteFeed subscribes the experiment viewer to a site's outermost
// stream tier and registers the drain component for end-of-run flushing.
func (e *Experiment) wireSiteFeed(site *Site) error {
	// Viewers subscribe at the outermost stream tier: the relay hub
	// when the site runs one, the DAQ hub otherwise.
	sub, err := site.StreamHub().SubscribeBatches(4096, false)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		e.Viewer.FeedFrom(sub.Batches())
		close(done)
	}()
	feed := runtime.StopFunc(func() {
		sub.Cancel()
		<-done
	})
	e.stopFeeds = append(e.stopFeeds, feed)
	e.sup.Adopt("feed:"+site.Spec.Name, feed)
	return nil
}

// coordinatorSource is the in-process obs source over the experiment's
// coordinator-side registry (with process self-metrics refreshed per
// fetch).
func (e *Experiment) coordinatorSource() obs.Source {
	return obs.Source{
		Name: "coordinator",
		Fetch: func() telemetry.Snapshot {
			telemetry.ProcessMetrics(e.Telemetry)
			return e.Telemetry.Snapshot()
		},
	}
}

// Build starts every site and wires monitoring.
func Build(spec Spec) (*Experiment, error) {
	if len(spec.Sites) == 0 {
		return nil, fmt.Errorf("most: experiment needs sites")
	}
	ca, err := gsi.NewAuthority("/O=NEES/CN=NEESgrid CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore(ca.Cert)
	coordCred, err := ca.Issue("/O=NEES/CN=simulation-coordinator", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	exp := newExperiment(spec, ca, trust, coordCred)
	for _, ss := range spec.Sites {
		site, err := startSite(ca, trust, coordCred.Identity(), ss)
		if err != nil {
			exp.Stop()
			return nil, err
		}
		site.Injector.UseTelemetry(exp.Telemetry)
		exp.Sites = append(exp.Sites, site)
		exp.sup.Adopt("site:"+ss.Name, runtime.Funcs{
			StopFunc:    func(ctx context.Context) error { return site.sup.Stop(ctx) },
			HealthyFunc: site.Healthy,
		}, runtime.WithDrain(site.sup.StopBudget()))
		if err := exp.wireSiteFeed(site); err != nil {
			exp.Stop()
			return nil, err
		}
	}
	if spec.Archive != nil {
		if err := exp.setupArchive(spec.Archive); err != nil {
			exp.Stop()
			return nil, fmt.Errorf("most: archive: %w", err)
		}
		exp.sup.Adopt("archive-ftp", runtime.StopErrFunc(exp.arch.ftp.Close))
	}
	// Observability plane: one scrape source per site over the container's
	// /metrics HTTP endpoint, plus the coordinator registry in-process (with
	// process self-metrics refreshed per fetch). Wired, not started — see
	// the obsAgg field comment.
	sources := make([]obs.Source, 0, len(exp.Sites)+1)
	for _, s := range exp.Sites {
		sources = append(sources, obs.Source{
			Name: s.Spec.Name,
			URL:  "http://" + s.Addr + "/metrics",
		})
	}
	sources = append(sources, exp.coordinatorSource())
	exp.obsAgg = obs.New(obs.Config{Sources: sources, SLOs: spec.SLOs})
	// Everything above adopted already-running pieces; Start just flips the
	// supervisor ready so /readyz-style probes and Healthy report sanely.
	if err := exp.sup.Start(context.Background()); err != nil {
		exp.Stop()
		return nil, err
	}
	return exp, nil
}

// BuildShared wires an experiment over already-running shared sites — the
// internal/fleet lease path. Unlike Build it does not create sites, does
// not own their lifecycle (Stop drains the viewer feeds and archive but
// leaves the sites serving for the next lease), and issues the
// coordinator credential from the pool's long-lived CA under a
// tenant-scoped subject (/O=NEES/OU=<tenant>/CN=<run>), mapping that
// identity into each leased site's gridmap under the tenant's account.
// Stop revokes the identity again, so a finished (or failed) experiment's
// coordinator cannot keep driving slots it no longer holds.
//
// spec.Sites must be empty: the topology is dictated by the leased sites,
// and their SiteSpecs are copied in so reports, viewers and coordSite
// wiring see the same shape Build would have produced. The experiment's
// observability aggregator covers the coordinator registry only — shared
// sites' registries accumulate traffic across tenants and belong to the
// pool's own scrape plane (fleetd), not to any single run's roll-up.
func BuildShared(spec Spec, ca *gsi.Authority, trust *gsi.TrustStore, tenant string, sites []*Site) (*Experiment, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("most: shared experiment needs leased sites")
	}
	if len(spec.Sites) != 0 {
		return nil, fmt.Errorf("most: BuildShared derives Spec.Sites from the leased sites; leave it empty")
	}
	if tenant == "" {
		return nil, fmt.Errorf("most: shared experiment needs a tenant")
	}
	cred, err := ca.Issue("/O=NEES/OU="+tenant+"/CN="+spec.Name, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	for _, s := range sites {
		spec.Sites = append(spec.Sites, s.Spec)
	}
	exp := newExperiment(spec, ca, trust, cred)
	identity := cred.Identity()
	for _, site := range sites {
		site.Authorize(identity, tenant)
		site.Injector.UseTelemetry(exp.Telemetry)
		exp.Sites = append(exp.Sites, site)
		// Health-only adoption: a leased site's liveness still gates the
		// experiment's Healthy, but Stop must not tear a shared site down.
		exp.sup.Adopt("leased-site:"+site.Spec.Name, runtime.Funcs{
			HealthyFunc: site.Healthy,
		})
		if err := exp.wireSiteFeed(site); err != nil {
			exp.Stop()
			revokeAll(sites, identity)
			return nil, err
		}
	}
	if spec.Archive != nil {
		if err := exp.setupArchive(spec.Archive); err != nil {
			exp.Stop()
			revokeAll(sites, identity)
			return nil, fmt.Errorf("most: archive: %w", err)
		}
		exp.sup.Adopt("archive-ftp", runtime.StopErrFunc(exp.arch.ftp.Close))
	}
	// Revocation is adopted last so it runs first on Stop: the tenant's
	// identity disappears from every slot before anything else drains.
	exp.sup.Adopt("tenant-authz", runtime.StopFunc(func() {
		revokeAll(sites, identity)
	}))
	exp.obsAgg = obs.New(obs.Config{
		Sources: []obs.Source{exp.coordinatorSource()},
		SLOs:    spec.SLOs,
	})
	if err := exp.sup.Start(context.Background()); err != nil {
		exp.Stop()
		return nil, err
	}
	return exp, nil
}

// revokeAll removes a coordinator identity from every listed site.
func revokeAll(sites []*Site, identity string) {
	for _, s := range sites {
		s.Revoke(identity)
	}
}

// Supervisor exposes the experiment's component tree (for probe handlers
// and shutdown smokes).
func (e *Experiment) Supervisor() *runtime.Supervisor { return e.sup }

// Obs returns the experiment's observability aggregator: cross-site merged
// metrics, per-site health, rate rings, and the SLO verdict. It is wired
// over every site plus the coordinator but its scrape loop is not running;
// call Start on it (or adopt it into a supervisor) for live aggregation,
// or ScrapeOnce for a point-in-time view.
func (e *Experiment) Obs() *obs.Aggregator { return e.obsAgg }

// Healthy aggregates component health across every site.
func (e *Experiment) Healthy() error { return e.sup.Healthy() }

// SpanSnapshot gathers every span recorded across the topology so far:
// coordinator-side first, then each site in declaration order. Spans from
// different recorders share trace IDs, so callers can group the snapshot
// by TraceID to reassemble per-step cross-site timelines.
func (e *Experiment) SpanSnapshot() []trace.SpanData {
	spans := e.TraceRecorder.Spans()
	for _, s := range e.Sites {
		spans = append(spans, s.SpanRecorder.Spans()...)
	}
	return spans
}

// Site returns a running site by name.
func (e *Experiment) Site(name string) (*Site, bool) {
	for _, s := range e.Sites {
		if s.Spec.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Stop tears the topology down: feeds, sites (each draining its own
// component tree), and the archive connection, in reverse build order
// under the supervisor's stop budget. Per-component failures are joined
// into the returned error instead of being swallowed.
func (e *Experiment) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), e.sup.StopBudget())
	defer cancel()
	return e.sup.Stop(ctx)
}

// Run executes the experiment.
func (e *Experiment) Run(ctx context.Context) (*Results, error) {
	spec := e.Spec
	steps := spec.Steps
	if steps <= 0 {
		steps = spec.Frame.Steps
	}
	ground := spec.Ground
	if ground == nil {
		cfg := groundmotion.ElCentroLike()
		cfg.Dt = spec.Frame.Dt
		cfg.Duration = float64(steps) * spec.Frame.Dt
		var err error
		ground, err = groundmotion.Generate(cfg)
		if err != nil {
			return nil, err
		}
	}

	// Index the fault schedule by step.
	faultsAt := make(map[int][]Fault)
	for _, f := range spec.Faults {
		faultsAt[f.Step] = append(faultsAt[f.Step], f)
	}
	applyFaults := func(step int) {
		for _, f := range faultsAt[step] {
			for _, s := range e.Sites {
				if f.Site != "" && f.Site != s.Spec.Name {
					continue
				}
				if f.Fatal {
					s.Injector.SetOutage(true)
				} else {
					s.Injector.FailNext(f.Count)
				}
			}
		}
	}

	frame := spec.Frame
	m := structural.Diagonal([]float64{frame.Mass})
	k := structural.Diagonal([]float64{frame.TotalK()})
	var c *structural.Matrix
	if frame.DampingRatio > 0 {
		w := frame.NaturalFrequency()
		c = structural.RayleighDamping(m, k, frame.DampingRatio, w, 5*w)
	}

	results := &Results{}
	cfg := coord.Config{
		M: m, C: c, K: k,
		Integrator: spec.Integrator,
		Dt:         frame.Dt,
		Steps:      steps,
		Ground:     ground.At,
		RunID:      spec.Name,
		FastPath:   spec.FastPath,
		Pipeline:   spec.Pipeline,
		Telemetry:  e.Telemetry,
		Tracer:     e.Tracer,
		Checkpoint: spec.Checkpoint,
		Resume:     spec.Resume,
		Interrupt:  spec.Interrupt,
		OnStep: func(ctx context.Context, st structural.State) {
			// Faults scheduled for step N+1 are armed after step N commits.
			applyFaults(st.Step + 1)
			if spec.DAQEvery > 0 && st.Step%spec.DAQEvery == 0 {
				for _, s := range e.Sites {
					// ctx carries the step span, so the DAQ readback's hub
					// publish nests under the step in the merged timeline.
					if _, err := s.DAQ.ScanContext(ctx, st.Step, st.T); err == nil {
						results.DAQScans++
					}
				}
			}
			if e.arch != nil {
				every := spec.Archive.IngestEvery
				if every <= 0 {
					every = 100
				}
				if st.Step > 0 && st.Step%every == 0 {
					if err := e.ingestTick(); err != nil {
						results.ArchiveErr = err
					}
				}
			}
			if spec.OnStep != nil {
				spec.OnStep(st)
			}
		},
	}
	sites := make([]coord.Site, len(e.Sites))
	for i, s := range e.Sites {
		sites[i] = s.coordSite(e.Cred, e.Trust, spec.Retry, e.Telemetry, e.Tracer)
	}
	co, err := coord.New(cfg, sites...)
	if err != nil {
		return nil, err
	}
	applyFaults(0)
	hist, report, runErr := co.Run(ctx)
	results.History = hist
	results.Report = report
	results.Err = runErr
	for _, s := range e.Sites {
		results.InjectedFaults += s.Injector.Injected()
	}
	if err := e.drainArchive(); err != nil && results.ArchiveErr == nil {
		results.ArchiveErr = err
	}
	// Monitoring ends with the run: drain the viewer feeds so every
	// published sample is visible to post-run analysis. The feeds are
	// once-wrapped, so the supervisor's Stop skips them later.
	for _, stop := range e.stopFeeds {
		_ = stop.Stop(context.Background())
	}
	return results, nil
}
