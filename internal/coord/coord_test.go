package coord

import (
	"context"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/gsi"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/structural"
)

// testSite is one in-process experiment site.
type testSite struct {
	name     string
	addr     string
	server   *core.Server
	injector *faultnet.Injector
}

// harness spins up a CA and n sites, each hosting one spring substructure
// behind NTCP.
type harness struct {
	ca    *gsi.Authority
	trust *gsi.TrustStore
	cred  *gsi.Credential
	sites []*testSite
}

func newHarness(t *testing.T, springs []structural.Element, policies []*core.SitePolicy) *harness {
	t.Helper()
	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	coordCred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	h := &harness{ca: ca, trust: trust, cred: coordCred}
	names := []string{"uiuc", "ncsa", "cu", "rpi", "lehigh"}
	for i, el := range springs {
		name := names[i%len(names)]
		siteCred, _ := ca.Issue("/O=NEES/CN="+name, time.Hour)
		gm := gsi.NewGridmap(map[string]string{"/O=NEES/CN=coordinator": "coord"})
		cont := ogsi.NewContainer(siteCred, trust, gm)
		elem := el
		plug := &core.SubstructurePlugin{
			Point: "drift",
			NDOF:  1,
			Apply: func(d []float64) ([]float64, error) {
				return []float64{elem.Restore(d[0])}, nil
			},
		}
		var pol *core.SitePolicy
		if policies != nil {
			pol = policies[i]
		}
		srv := core.NewServer(plug, pol, core.ServerOptions{})
		cont.AddService(srv.Service())
		addr, err := cont.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = cont.Stop(ctx)
		})
		h.sites = append(h.sites, &testSite{
			name:     name,
			addr:     addr,
			server:   srv,
			injector: faultnet.NewInjector(faultnet.LAN),
		})
	}
	return h
}

// coordSites builds coordinator Site bindings, all mapped to global DOF 0,
// with the given retry policy routed through each site's injector.
func (h *harness) coordSites(retry core.RetryPolicy) []Site {
	sites := make([]Site, len(h.sites))
	for i, ts := range h.sites {
		og := ogsi.NewClient("http://"+ts.addr, h.cred, h.trust)
		og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(ts.injector, ogsi.NewPinnedTransport(2))}
		sites[i] = Site{
			Name:         ts.name,
			Client:       core.NewClient(og, retry),
			ControlPoint: "drift",
			DOFs:         []int{0},
		}
	}
	return sites
}

// sdofConfig builds a 1-DOF config over total stiffness k with a sine
// ground motion.
func sdofConfig(mass, k float64, steps int) Config {
	w := 2 * math.Pi * 1.2
	return Config{
		M:      structural.Diagonal([]float64{mass}),
		K:      structural.Diagonal([]float64{k}),
		Dt:     0.01,
		Steps:  steps,
		Ground: func(step int) float64 { return 2.0 * math.Sin(w*float64(step)*0.01) },
		RunID:  "test",
	}
}

// stepping is one row of the conformance table: a stepping configuration and
// what its schedule promises. Every behaviour test that is not about one
// configuration in particular runs once per row (eachStepping), so a property
// holds for the engine, not for the one schedule somebody remembered to test.
type stepping struct {
	name string
	set  func(*Config)
	// barrier: no site executes a step before every site has accepted it.
	barrier bool
	// exact: every step executes the integrator's own displacement, so the
	// trajectory is bit-identical to a local run. Pipeline at its default
	// tolerance executes predictions instead (within that tolerance).
	exact bool
	// envelopes is the number of signed envelopes each site receives over a
	// fault-free run of steps 0…n — the protocol cost behind the benchmark's
	// coord.envelopes_per_step.*, gated here where timing noise cannot hide it.
	envelopes func(n int) int
}

var steppings = []stepping{
	{"classic", func(*Config) {}, true, true,
		func(n int) int { return 2 * (n + 1) }}, // propose + execute
	{"fastpath", func(c *Config) { c.FastPath = true }, false, true,
		func(n int) int { return n + 1 }}, // proposeAndExecute
	{"pipeline", func(c *Config) { c.Pipeline = true }, true, false,
		func(n int) int { return 1 + (n + 1) }}, // cold-start barrier, then [execute, propose] per step
	{"pipeline-rollback", func(c *Config) { c.Pipeline, c.PipelineTolerance = true, -1 }, true, true,
		// Step 0 as above; every later step cancels its speculation, proposes
		// (the cancelled record replays), proposes revision 1, and commits.
		func(n int) int { return 2 + 4*n }},
}

func eachStepping(t *testing.T, fn func(t *testing.T, sc stepping)) {
	for _, sc := range steppings {
		t.Run(sc.name, func(t *testing.T) { fn(t, sc) })
	}
}

func TestDistributedMatchesLocalExactly(t *testing.T) {
	// E1/E3 core property: a distributed run over NTCP with noise-free
	// simulation plugins reproduces the local single-process trajectory
	// bit-for-bit.
	kL, kM, kR := 800.0, 2000.0, 800.0
	mass := 100.0
	steps := 120

	// Local reference.
	local, err := structural.NewAssembly(1,
		structural.Binding{Sub: structural.NewElementSubstructure("l", structural.NewLinearElastic(kL)), DOFs: []int{0}},
		structural.Binding{Sub: structural.NewElementSubstructure("m", structural.NewLinearElastic(kM)), DOFs: []int{0}},
		structural.Binding{Sub: structural.NewElementSubstructure("r", structural.NewLinearElastic(kR)), DOFs: []int{0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sdofConfig(mass, kL+kM+kR, steps)
	sysLocal := &structural.System{M: cfg.M, K: cfg.K, R: local.Restore}
	refHist, err := structural.Run(sysLocal, structural.NewExplicitNewmark(), structural.RunOptions{
		Dt: cfg.Dt, Steps: steps, Ground: cfg.Ground,
	})
	if err != nil {
		t.Fatal(err)
	}

	eachStepping(t, func(t *testing.T, sc stepping) {
		h := newHarness(t, []structural.Element{
			structural.NewLinearElastic(kL),
			structural.NewLinearElastic(kM),
			structural.NewLinearElastic(kR),
		}, nil)
		cfg := cfg
		sc.set(&cfg)
		c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
		if err != nil {
			t.Fatal(err)
		}
		hist, report, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !report.Completed || report.StepsCompleted != steps {
			t.Fatalf("report = %+v", report)
		}
		if hist.Len() != refHist.Len() {
			t.Fatalf("history length %d vs %d", hist.Len(), refHist.Len())
		}
		if sc.exact {
			for i := range refHist.States {
				if hist.States[i].D[0] != refHist.States[i].D[0] {
					t.Fatalf("step %d: distributed %g != local %g",
						i, hist.States[i].D[0], refHist.States[i].D[0])
				}
				if hist.States[i].F[0] != refHist.States[i].F[0] {
					t.Fatalf("step %d force mismatch", i)
				}
			}
		} else if got := report.Telemetry.Counters["coord.pipeline.mispredicts"]; got != 0 {
			// The inexact row's trajectory bound is
			// TestPipelinedMatchesBaselineWithinTolerance; here it only has to
			// pay what the table says.
			t.Fatalf("%d mispredicts on a smooth sine: the envelope count below assumes none", got)
		}
		for _, ts := range h.sites {
			if got, want := ts.injector.Calls(), sc.envelopes(steps); got != want {
				t.Errorf("site %s received %d envelopes over steps 0…%d, want exactly %d",
					ts.name, got, steps, want)
			}
		}
	})
}

func TestTransientFaultsRecovered(t *testing.T) {
	// E2 (recovery half): inject transient failures mid-run; a retrying
	// coordinator finishes all steps and reports recoveries.
	eachStepping(t, func(t *testing.T, sc stepping) {
		h := newHarness(t, []structural.Element{
			structural.NewLinearElastic(1000),
			structural.NewLinearElastic(1000),
		}, nil)
		cfg := sdofConfig(100, 2000, 60)
		sc.set(&cfg)
		faultsScheduled := 0
		cfg.OnStep = func(_ context.Context, st structural.State) {
			// Drop the next couple of calls at a few points through the run.
			if st.Step == 10 || st.Step == 25 || st.Step == 40 {
				h.sites[st.Step%2].injector.FailNext(2)
				faultsScheduled += 2
			}
		}
		c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !report.Completed {
			t.Fatalf("run did not complete: %+v", report)
		}
		if report.Recovered == 0 || report.Retries == 0 {
			t.Fatalf("no recoveries recorded despite %d injected faults: %+v", faultsScheduled, report)
		}
	})
}

func TestNoRetryCoordinatorAbortsAtFaultStep(t *testing.T) {
	// E2 (failure half): the public MOST run's coordinator had no retry;
	// a network error at step N kills the run at step N.
	h := newHarness(t, []structural.Element{
		structural.NewLinearElastic(1000),
		structural.NewLinearElastic(1000),
	}, nil)
	const fatalStep = 37
	cfg := sdofConfig(100, 2000, 60)
	cfg.OnStep = func(_ context.Context, st structural.State) {
		if st.Step == fatalStep-1 {
			h.sites[0].injector.SetOutage(true)
		}
	}
	c, err := New(cfg, h.coordSites(core.NoRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("run should abort on outage")
	}
	if report.Completed {
		t.Fatal("report claims completion")
	}
	if report.FailedStep != fatalStep || StepOf(err) != fatalStep {
		t.Fatalf("failed at step %d (err %v), want %d", report.FailedStep, err, fatalStep)
	}
	if report.StepsCompleted != fatalStep-1 {
		t.Fatalf("steps completed = %d, want %d", report.StepsCompleted, fatalStep-1)
	}
	if hist.Len() != fatalStep { // states 0..fatalStep-1
		t.Fatalf("history has %d states, want %d", hist.Len(), fatalStep)
	}
}

func TestPolicyRejectionCancelsSiblings(t *testing.T) {
	// A site whose policy rejects the step displacement aborts the run with
	// core.ErrRejected. Behind a barrier the coordinator cancels the
	// already-accepted transactions at the other sites — the §2.1 negotiation
	// behaviour — and the rejected step executes nowhere. Without one
	// (FastPath) the sibling has already executed it: that is the trade.
	eachStepping(t, func(t *testing.T, sc stepping) {
		pol := []*core.SitePolicy{
			nil,
			{PointLimits: map[string]core.Limits{"drift": {MaxDisplacement: 1e-9}}}, // rejects almost everything
		}
		h := newHarness(t, []structural.Element{
			structural.NewLinearElastic(1000),
			structural.NewLinearElastic(1000),
		}, pol)
		cfg := sdofConfig(100, 2000, 30)
		sc.set(&cfg)
		c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := c.Run(context.Background())
		if err == nil || report.Completed {
			t.Fatalf("run should abort on rejection: %+v", report)
		}
		if !errors.Is(err, core.ErrRejected) {
			t.Fatalf("err = %v, want core.ErrRejected identity", err)
		}
		sibling := h.sites[0].server.Stats()
		committed := report.StepsCompleted + 1 // steps 0…StepsCompleted
		if sc.barrier {
			// Site 0 accepted its proposal and must have seen it cancelled.
			if sibling.Cancelled == 0 || sibling.Executed != committed {
				t.Fatalf("sibling stats = %+v, want a cancellation and exactly the %d committed steps executed",
					sibling, committed)
			}
		} else if sibling.Executed != committed+1 {
			t.Fatalf("sibling stats = %+v, want the rejected step executed on top of %d committed", sibling, committed)
		}
	})
}

func TestAlphaOSDistributed(t *testing.T) {
	h := newHarness(t, []structural.Element{
		structural.NewLinearElastic(1500),
		structural.NewLinearElastic(500),
	}, nil)
	cfg := sdofConfig(100, 2000, 80)
	aos, err := structural.NewAlphaOS(-0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Integrator = aos
	c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
	if hist.PeakDisplacement(0) <= 0 {
		t.Fatal("flat response")
	}
}

func TestOnStepObserverSeesEveryStep(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, nil)
	cfg := sdofConfig(100, 1000, 25)
	var seen []int
	cfg.OnStep = func(_ context.Context, st structural.State) { seen = append(seen, st.Step) }
	c, err := New(cfg, h.coordSites(core.NoRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 26 || seen[0] != 0 || seen[25] != 25 {
		t.Fatalf("observed steps = %v", seen)
	}
}

func TestConfigValidation(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1)}, nil)
	good := sdofConfig(1, 1, 1)
	sites := h.coordSites(core.NoRetry)

	bad := good
	bad.M = nil
	if _, err := New(bad, sites...); err == nil {
		t.Fatal("missing mass should fail")
	}
	bad = good
	bad.Dt = 0
	if _, err := New(bad, sites...); err == nil {
		t.Fatal("zero dt should fail")
	}
	bad = good
	bad.Ground = nil
	if _, err := New(bad, sites...); err == nil {
		t.Fatal("missing ground motion should fail")
	}
	if _, err := New(good); err == nil {
		t.Fatal("no sites should fail")
	}
	dup := []Site{sites[0], sites[0]}
	if _, err := New(good, dup...); err == nil {
		t.Fatal("duplicate sites should fail")
	}
	badSite := sites[0]
	badSite.DOFs = []int{7}
	if _, err := New(good, badSite); err == nil {
		t.Fatal("out-of-range DOF should fail")
	}
	noClient := sites[0]
	noClient.Client = nil
	if _, err := New(good, noClient); err == nil {
		t.Fatal("nil client should fail")
	}
	noDofs := sites[0]
	noDofs.DOFs = nil
	if _, err := New(good, noDofs); err == nil {
		t.Fatal("empty DOFs should fail")
	}
}

func TestFastPathMatchesBaseline(t *testing.T) {
	// The §5 fast path must produce the identical trajectory — only the
	// number of round trips changes.
	springs := func() []structural.Element {
		return []structural.Element{
			structural.NewLinearElastic(900),
			structural.NewLinearElastic(1100),
		}
	}
	run := func(fast bool) *structural.History {
		h := newHarness(t, springs(), nil)
		cfg := sdofConfig(100, 2000, 100)
		cfg.FastPath = fast
		c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
		if err != nil {
			t.Fatal(err)
		}
		hist, report, err := c.Run(context.Background())
		if err != nil || !report.Completed {
			t.Fatalf("run(fast=%v): %+v, %v", fast, report, err)
		}
		return hist
	}
	base := run(false)
	fast := run(true)
	for i := range base.States {
		if base.States[i].D[0] != fast.States[i].D[0] {
			t.Fatalf("step %d: fast path diverged", i)
		}
	}
}

func TestTwoStoryDistributedGatherScatter(t *testing.T) {
	kl, ku, kc := 3000.0, 2000.0, 500.0
	h := newHarness(t, []structural.Element{
		structural.NewLinearElastic(kl), // lower story at global DOF 0
		structural.NewLinearElastic(ku), // upper story at global DOF 1
		structural.NewLinearElastic(kc), // extra spring also on DOF 1
	}, nil)

	m := structural.Diagonal([]float64{200, 150})
	// Reference stiffness matrix for the "uncoupled springs per DOF" model.
	k := structural.Diagonal([]float64{kl, ku + kc})
	cfg := Config{
		M: m, K: k, Dt: 0.005, Steps: 150,
		Ground: func(step int) float64 { return 1.5 * math.Sin(0.06*float64(step)) },
		RunID:  "twostory",
	}
	sites := h.coordSites(core.DefaultRetry)
	sites[0].DOFs = []int{0}
	sites[1].DOFs = []int{1}
	sites[2].DOFs = []int{1}
	c, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, %v", report, err)
	}

	// Local reference with the same spring layout.
	ref, err := structural.NewAssembly(2,
		structural.Binding{Sub: structural.NewElementSubstructure("l", structural.NewLinearElastic(kl)), DOFs: []int{0}},
		structural.Binding{Sub: structural.NewElementSubstructure("u", structural.NewLinearElastic(ku)), DOFs: []int{1}},
		structural.Binding{Sub: structural.NewElementSubstructure("c", structural.NewLinearElastic(kc)), DOFs: []int{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys := &structural.System{M: m, K: k, R: ref.Restore}
	refHist, err := structural.Run(sys, structural.NewExplicitNewmark(), structural.RunOptions{
		Dt: cfg.Dt, Steps: cfg.Steps, Ground: cfg.Ground,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range refHist.States {
		for dof := 0; dof < 2; dof++ {
			if hist.States[i].D[dof] != refHist.States[i].D[dof] {
				t.Fatalf("step %d dof %d: distributed %g != local %g",
					i, dof, hist.States[i].D[dof], refHist.States[i].D[dof])
			}
		}
	}
}

// A multi-DOF control point behind NTCP, driven by the coordinator as a
// 2-DOF substructure spanning both global DOFs of a two-story model: one
// emulated actuator per axis, one plugin, one action per step.
func TestMultiAxisRigDistributed(t *testing.T) {
	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	coordCred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	siteCred, _ := ca.Issue("/O=NEES/CN=uminn", time.Hour)
	gm := gsi.NewGridmap(map[string]string{"/O=NEES/CN=coordinator": "coord"})

	cfgAct := control.DefaultActuator()
	cfgAct.PositionNoiseStd, cfgAct.ForceNoiseStd = 0, 0
	k1, k2 := 3000.0, 2000.0
	axes := []*control.Actuator{
		control.NewActuator(cfgAct, structural.NewLinearElastic(k1)),
		control.NewActuator(cfgAct, structural.NewLinearElastic(k2)),
	}
	apply := func(d []float64) ([]float64, error) {
		forces := make([]float64, len(axes))
		for i, a := range axes {
			if _, err := a.Move(d[i]); err != nil {
				return nil, err
			}
			forces[i] = a.Force()
		}
		return forces, nil
	}
	plug := &core.SubstructurePlugin{Point: "specimen", NDOF: 2, Apply: apply}
	srv := core.NewServer(plug, nil, core.ServerOptions{})
	cont := ogsi.NewContainer(siteCred, trust, gm)
	cont.AddService(srv.Service())
	addr, err := cont.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = cont.Stop(ctx)
	})

	og := ogsi.NewClient("http://"+addr, coordCred, trust)
	cfg := Config{
		M:      structural.Diagonal([]float64{150, 100}),
		K:      structural.Diagonal([]float64{k1, k2}),
		Dt:     0.005,
		Steps:  120,
		Ground: func(step int) float64 { return 1.2 * math.Sin(0.08*float64(step)) },
		RunID:  "uminn",
	}
	c, err := New(cfg, Site{
		Name:         "uminn",
		Client:       core.NewClient(og, core.DefaultRetry),
		ControlPoint: "specimen",
		DOFs:         []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, %v", report, err)
	}
	// Both DOFs responded; the rig's actuators track within servo tolerance
	// of an equivalent numerical model.
	if hist.PeakDisplacement(0) == 0 || hist.PeakDisplacement(1) == 0 {
		t.Fatal("a DOF never moved")
	}
	ref, err := structural.NewAssembly(2,
		structural.Binding{Sub: structural.NewElementSubstructure("a", structural.NewLinearElastic(k1)), DOFs: []int{0}},
		structural.Binding{Sub: structural.NewElementSubstructure("b", structural.NewLinearElastic(k2)), DOFs: []int{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys := &structural.System{M: cfg.M, K: cfg.K, R: ref.Restore}
	refHist, err := structural.Run(sys, structural.NewExplicitNewmark(), structural.RunOptions{
		Dt: cfg.Dt, Steps: cfg.Steps, Ground: cfg.Ground,
	})
	if err != nil {
		t.Fatal(err)
	}
	for dof := 0; dof < 2; dof++ {
		peak := refHist.PeakDisplacement(dof)
		for i := range refHist.States {
			diff := math.Abs(hist.States[i].D[dof] - refHist.States[i].D[dof])
			if diff > 0.02*peak+1e-6 {
				t.Fatalf("dof %d step %d: rig %g vs model %g", dof, i,
					hist.States[i].D[dof], refHist.States[i].D[dof])
			}
		}
	}
}

// failingIntegrator delegates to a real integrator until step failAt, then
// errors — the shape of a numerical divergence mid-run.
type failingIntegrator struct {
	inner  structural.Integrator
	failAt int
	n      int
}

func (f *failingIntegrator) Init(sys *structural.System, dt float64, d0, v0, p0 []float64) (structural.State, error) {
	return f.inner.Init(sys, dt, d0, v0, p0)
}

func (f *failingIntegrator) Step(p []float64) (structural.State, error) {
	f.n++
	if f.n >= f.failAt {
		return structural.State{}, errors.New("integrator diverged")
	}
	return f.inner.Step(p)
}

func (f *failingIntegrator) Name() string { return "failing-" + f.inner.Name() }

func TestIntegratorFailureReportedOnce(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1e6)}, nil)
	cfg := sdofConfig(1000, 1e6, 10)
	cfg.Integrator = &failingIntegrator{inner: structural.NewExplicitNewmark(), failAt: 3}
	c, err := New(cfg, h.coordSites(core.NoRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	hist, rep, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("run must fail")
	}
	if StepOf(err) != 3 {
		t.Fatalf("failing step = %d, want 3", StepOf(err))
	}
	// The error returned is the one the report carries — produced by finish
	// exactly once.
	if rep.Err != err {
		t.Fatalf("report.Err (%v) is not the returned error (%v)", rep.Err, err)
	}
	if rep.Completed || rep.FailedStep != 3 || rep.StepsCompleted != 2 {
		t.Fatalf("report %+v", rep)
	}
	if hist == nil || hist.Len() != 3 { // init + 2 committed steps
		t.Fatalf("history len %d, want 3", hist.Len())
	}
	failures := 0
	for _, ev := range rep.Telemetry.Events {
		if ev.Component == "coord" && ev.Event == "run.failed" {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("run.failed recorded %d times, want exactly once", failures)
	}
	if got := rep.Telemetry.Counters["coord.steps.failed"]; got != 1 {
		t.Fatalf("coord.steps.failed = %d, want 1", got)
	}
}

// StepOf extracts the failing step from a run error (0 if unknown).
func StepOf(err error) int {
	var se *stepError
	if errors.As(err, &se) {
		return se.step
	}
	return 0
}
