// Package most assembles the complete MOST-class experiment topologies of
// the paper (Figs. 5, 9, 11): per-site OGSI containers hosting NTCP servers
// with the site's control plugin (simulation, Mplugin+poll back end,
// Shore-Western rig, xPC rig, or LabVIEW stepper), per-site DAQ feeding
// NSDS streams and repository ingestion, telepresence cameras, WAN fault
// injection, and the MS-PSDS simulation coordinator driving it all. It is
// the harness behind experiments E1, E2, E3, E7 and E12.
package most

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/coord"
	"neesgrid/internal/core"
	"neesgrid/internal/daq"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/gsi"
	"neesgrid/internal/nsds"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/plugin"
	"neesgrid/internal/runtime"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/telepresence"
	"neesgrid/internal/trace"
)

// BackendKind selects how a site's substructure is realized — the axis
// along which NTCP makes "a physical experiment and a computational
// simulation indistinguishable".
type BackendKind int

// The back ends used across MOST and Mini-MOST.
const (
	// KindSimulation plugs a numerical element directly into NTCP.
	KindSimulation BackendKind = iota
	// KindMpluginSim is the NCSA configuration: a buffering Mplugin whose
	// back-end solver polls for requests and notifies results.
	KindMpluginSim
	// KindShoreWestern is the UIUC configuration: an emulated
	// servo-hydraulic rig behind a Shore-Western TCP controller.
	KindShoreWestern
	// KindXPC is the CU configuration: an emulated rig behind an
	// xPC-target real-time loop.
	KindXPC
	// KindLabView is the Mini-MOST configuration: a stepper-motor beam
	// behind a LabVIEW daemon.
	KindLabView
	// KindKinetic is the Mini-MOST hardware-free test configuration: the
	// first-order kinetic beam simulator.
	KindKinetic
)

func (k BackendKind) String() string {
	switch k {
	case KindSimulation:
		return "simulation"
	case KindMpluginSim:
		return "mplugin-sim"
	case KindShoreWestern:
		return "shore-western"
	case KindXPC:
		return "xpc"
	case KindLabView:
		return "labview"
	case KindKinetic:
		return "kinetic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SiteSpec describes one experiment site.
type SiteSpec struct {
	Name  string
	Kind  BackendKind
	Point string // control point name; defaults to "drift"
	// Substructure behaviour: elastic stiffness, yield force (0 = linear),
	// hardening ratio.
	K, Fy, Hardening float64
	// DOFs maps the site's single control DOF to global model DOFs;
	// defaults to [0].
	DOFs []int
	// Policy is the site's proposal screen (nil = unrestricted).
	Policy *core.SitePolicy
	// WAN is the network profile between the coordinator and this site.
	WAN faultnet.Profile
	// Noisy enables sensor noise on rig-backed sites.
	Noisy bool
	// Relay interposes a local NSDS relay tier between the site's hub and
	// its viewers (paper §2.2 fan-out at scale): the DAQ publishes to the
	// hub, a relay forwards to a second hub, and viewers subscribe there.
	// Each tier keeps its own best-effort drop accounting.
	Relay bool
}

// Site is a running experiment site.
type Site struct {
	Spec     SiteSpec
	Addr     string
	Server   *core.Server
	Injector *faultnet.Injector
	Hub      *nsds.Hub
	// RelayHub is the viewer-facing hub of the relay tier (nil unless
	// Spec.Relay); viewers subscribe via StreamHub, which picks it up.
	RelayHub *nsds.Hub
	DAQ      *daq.DAQ
	Camera   *telepresence.Camera
	Rig      *control.Rig
	// Telemetry is the site-local registry shared by the site's OGSI
	// container and NTCP server: per-op request counts, fault codes,
	// dispatch latency, transaction outcomes. Remotely readable via the
	// container's /metrics endpoint and the service's "metrics" SDE.
	Telemetry *telemetry.Registry
	// Tracer records the site's server-side spans (container dispatch,
	// NTCP lifecycle, chain verification, NSDS fan-out) into SpanRecorder;
	// remotely readable via the container's /trace endpoint.
	Tracer       *trace.Tracer
	SpanRecorder *trace.Recorder

	container *ogsi.Container
	// gridmap is the container's live identity→account map. Pooled sites
	// (internal/fleet) add a tenant's coordinator identity on lease and
	// revoke it on release, so two tenants' coordinators are never
	// simultaneously authorized at the same slot.
	gridmap *gsi.Gridmap
	// sup supervises the site's components — rig daemons, container, NTCP
	// server, hub — so teardown is ordered (reverse of start), deadline-
	// bounded, and error-reporting instead of an ad-hoc cleanup slice.
	sup    *runtime.Supervisor
	relay  *nsds.LocalRelay
	resets []func() error
	// rec is the recording plugin wrapped around the control backend; a
	// daemon restart builds a fresh NTCP server over the same plugin so the
	// specimen (and its hysteresis) survives while the transaction table
	// does not — exactly what a site-daemon crash does to a real rig.
	rec *recordingPlugin

	mu        sync.Mutex
	lastDisp  float64
	lastForce float64
	failExec  error
	restarts  int
}

// recordingPlugin wraps a site plugin so the harness can observe the last
// applied displacement/force (the quantity the site's DAQ samples).
type recordingPlugin struct {
	inner core.Plugin
	site  *Site
}

func (r *recordingPlugin) Validate(ctx context.Context, actions []core.Action) error {
	return r.inner.Validate(ctx, actions)
}

func (r *recordingPlugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	if err := r.site.takeFailExec(); err != nil {
		return nil, err
	}
	results, err := r.inner.Execute(ctx, actions)
	if err == nil && len(results) > 0 && len(results[0].Displacements) > 0 {
		r.site.mu.Lock()
		r.site.lastDisp = results[0].Displacements[0]
		if len(results[0].Forces) > 0 {
			r.site.lastForce = results[0].Forces[0]
		}
		r.site.mu.Unlock()
	}
	return results, err
}

// LastDisp returns the last displacement applied at the site.
func (s *Site) LastDisp() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDisp
}

// LastForce returns the last force measured at the site.
func (s *Site) LastForce() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastForce
}

// FailNextExecute arms a one-shot plugin failure: the next execute at this
// site fails with err before the backend runs, driving the transaction to
// StateFailed — the signature of a site daemon dying mid-transaction. The
// specimen is untouched (the action never reached it), which is what makes
// a later replay of the step safe.
func (s *Site) FailNextExecute(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failExec = err
}

// takeFailExec consumes an armed execute failure.
func (s *Site) takeFailExec() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.failExec
	s.failExec = nil
	return err
}

// RestartServer emulates a site-daemon kill/restart: a fresh NTCP server
// (empty transaction table, zero drained state) is swapped into the
// container under the same service name, over the same plugin, policy, and
// telemetry. The old server is abandoned, not drained — a killed daemon
// does not get to say goodbye. Callers coordinate quiescence themselves
// (the chaos engine restarts only between coordinator incarnations).
func (s *Site) RestartServer() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	server := core.NewServer(s.rec, s.Spec.Policy,
		core.ServerOptions{Telemetry: s.Telemetry, Tracer: s.Tracer})
	if _, err := s.container.ReplaceService(server.Service()); err != nil {
		return fmt.Errorf("most: site %s restart: %w", s.Spec.Name, err)
	}
	s.Server = server
	s.restarts++
	s.Telemetry.Counter("most.site.restarts").Inc()
	return nil
}

// Restarts returns how many times the site's NTCP daemon was restarted.
func (s *Site) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// currentServer returns the live NTCP server (it changes across restarts).
func (s *Site) currentServer() *core.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Server
}

// Reset returns the site's substructure to its virgin state — the
// between-runs specimen reset (the paper ran the full experiment twice,
// dry run then public run).
func (s *Site) Reset() error {
	for _, r := range s.resets {
		if err := r(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.lastDisp, s.lastForce = 0, 0
	s.mu.Unlock()
	return nil
}

// Stop tears the site down: components drain in reverse start order
// (hub, then NTCP server drain, then container, then the control
// backend), each under its own deadline. The joined per-component errors
// are returned instead of being swallowed.
func (s *Site) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.sup.StopBudget())
	defer cancel()
	return s.sup.Stop(ctx)
}

// StreamHub returns the hub viewers should subscribe to: the relay-tier
// hub when the site runs a relay, the DAQ hub otherwise.
func (s *Site) StreamHub() *nsds.Hub {
	if s.RelayHub != nil {
		return s.RelayHub
	}
	return s.Hub
}

// DrainStream waits until every sample published so far has traversed the
// relay tier (a no-op without one). Deterministic verdicts — the chaos
// engine's forced-drop accounting — need the asynchronous relay quiesced
// before its counters are read.
func (s *Site) DrainStream(ctx context.Context) error {
	if s.relay == nil {
		return nil
	}
	return s.relay.Drain(ctx)
}

// Authorize maps a Grid identity into the site's live gridmap under the
// given local account — the lease-grant path for pooled sites: a tenant's
// coordinator becomes acceptable to this site's container for the
// duration of its lease.
func (s *Site) Authorize(identity, account string) {
	s.gridmap.Map(identity, account)
}

// Revoke removes a Grid identity from the site's gridmap — the lease
// release. A revoked coordinator's envelopes fail authorization on the
// next call, so a tenant cannot keep driving a slot it returned.
func (s *Site) Revoke(identity string) {
	s.gridmap.Unmap(identity)
}

// Supervisor exposes the site's component tree so an experiment (or an
// e2e test) can nest it under its own supervisor.
func (s *Site) Supervisor() *runtime.Supervisor { return s.sup }

// Healthy aggregates the site's component health.
func (s *Site) Healthy() error { return s.sup.Healthy() }

// buildBackend constructs the plugin (and any rig/daemon) for a spec.
func buildBackend(spec SiteSpec, site *Site) (core.Plugin, error) {
	point := spec.Point
	elastic := spec.K
	switch spec.Kind {
	case KindSimulation:
		var elem structural.Element
		if spec.Fy > 0 {
			elem = structural.NewBilinear(elastic, spec.Fy, spec.Hardening)
		} else {
			elem = structural.NewLinearElastic(elastic)
		}
		var mu sync.Mutex
		site.resets = append(site.resets, func() error {
			mu.Lock()
			defer mu.Unlock()
			elem.Reset()
			return nil
		})
		return &core.SubstructurePlugin{
			Point: point, NDOF: 1,
			Apply: func(d []float64) ([]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				return []float64{elem.Restore(d[0])}, nil
			},
		}, nil

	case KindMpluginSim:
		m := plugin.NewMplugin(point, 1, 16)
		var elem structural.Element
		if spec.Fy > 0 {
			elem = structural.NewBilinear(elastic, spec.Fy, spec.Hardening)
		} else {
			elem = structural.NewLinearElastic(elastic)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		go func() {
			_ = m.RunBackend(ctx, func(d []float64) ([]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				return []float64{elem.Restore(d[0])}, nil
			})
		}()
		site.sup.Adopt("mplugin-backend", runtime.StopFunc(cancel))
		site.resets = append(site.resets, func() error {
			mu.Lock()
			defer mu.Unlock()
			elem.Reset()
			return nil
		})
		return m, nil

	case KindShoreWestern:
		cfg := control.DefaultActuator()
		if !spec.Noisy {
			cfg.PositionNoiseStd = 0
			cfg.ForceNoiseStd = 0
		}
		rig := control.NewColumnRig(spec.Name+"-rig", cfg, elastic, spec.Fy, spec.Hardening)
		site.Rig = rig
		srv := control.NewShoreWesternServer(rig)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		site.sup.Adopt("shore-western-server", runtime.StopErrFunc(srv.Close))
		cl := control.NewShoreWesternClient(addr)
		site.sup.Adopt("shore-western-client", runtime.StopErrFunc(cl.Close))
		site.resets = append(site.resets, rig.Reset)
		return &plugin.ShoreWesternPlugin{Point: point, Client: cl}, nil

	case KindXPC:
		cfg := control.DefaultActuator()
		if !spec.Noisy {
			cfg.PositionNoiseStd = 0
			cfg.ForceNoiseStd = 0
		}
		rig := control.NewColumnRig(spec.Name+"-rig", cfg, elastic, spec.Fy, spec.Hardening)
		site.Rig = rig
		target := control.NewXPCTarget(rig)
		target.Start()
		site.sup.Adopt("xpc-target", runtime.StopFunc(target.Stop))
		site.resets = append(site.resets, rig.Reset)
		return &plugin.XPCPlugin{Point: point, Target: target}, nil

	case KindLabView:
		stepper := control.NewStepperBeam(spec.Name+"-beam", elastic, 1e-5, 200_000)
		daemon := plugin.NewLabViewDaemon(stepper)
		addr, err := daemon.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		site.sup.Adopt("labview-daemon", runtime.StopErrFunc(daemon.Close))
		p := &plugin.LabViewPlugin{Point: point, Addr: addr}
		site.sup.Adopt("labview-plugin", runtime.StopErrFunc(p.Close))
		site.resets = append(site.resets, stepper.Reset)
		return p, nil

	case KindKinetic:
		sim := control.NewFirstOrderKinetic(spec.Name+"-kinetic", elastic, 0.02, 1.0)
		var mu sync.Mutex
		site.resets = append(site.resets, func() error {
			mu.Lock()
			defer mu.Unlock()
			return sim.Reset()
		})
		return &core.SubstructurePlugin{
			Point: point, NDOF: 1,
			Apply: func(d []float64) ([]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				return sim.Apply(d)
			},
		}, nil

	default:
		return nil, fmt.Errorf("most: unknown backend kind %v", spec.Kind)
	}
}

// StartSharedSite builds and starts one site against a long-lived pool CA
// with an empty gridmap: no coordinator is authorized until a lease maps
// one in with Authorize. This is the constructor behind internal/fleet's
// shared site pool — the site outlives any single experiment and is reused
// across tenants (Reset between leases returns the specimen to its virgin
// state).
func StartSharedSite(ca *gsi.Authority, trust *gsi.TrustStore, spec SiteSpec) (*Site, error) {
	return startSite(ca, trust, "", spec)
}

// startSite builds and starts one site against the experiment CA.
func startSite(ca *gsi.Authority, trust *gsi.TrustStore, coordIdentity string, spec SiteSpec) (*Site, error) {
	if spec.Point == "" {
		spec.Point = "drift"
	}
	if len(spec.DOFs) == 0 {
		spec.DOFs = []int{0}
	}
	site := &Site{
		Spec:         spec,
		Injector:     faultnet.NewInjector(spec.WAN),
		Hub:          nsds.NewHub(),
		Telemetry:    telemetry.NewRegistry(),
		SpanRecorder: trace.NewRecorder(0),
		sup:          runtime.NewSupervisor("site:" + spec.Name),
	}
	site.Tracer = trace.NewTracer(spec.Name, site.SpanRecorder)
	site.Hub.UseTracer(site.Tracer)
	site.Hub.UseTelemetry(site.Telemetry, "hub")
	// Pre-register at zero: a site that never restarted exports the series.
	site.Telemetry.Counter("most.site.restarts")

	backend, err := buildBackend(spec, site)
	if err != nil {
		return nil, fmt.Errorf("most: site %s: %w", spec.Name, err)
	}
	rec := &recordingPlugin{inner: backend, site: site}
	site.rec = rec

	siteCred, err := ca.Issue("/O=NEES/CN="+spec.Name, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	gm := gsi.NewGridmap(nil)
	if coordIdentity != "" {
		gm.Map(coordIdentity, "coord")
	}
	site.gridmap = gm
	cont := ogsi.NewContainer(siteCred, trust, gm)
	cont.UseTelemetry(site.Telemetry)
	cont.UseTracer(site.Tracer)
	server := core.NewServer(rec, spec.Policy, core.ServerOptions{Telemetry: site.Telemetry, Tracer: site.Tracer})
	cont.AddService(server.Service())
	addr, err := cont.Start("127.0.0.1:0")
	if err != nil {
		_ = site.Stop()
		return nil, fmt.Errorf("most: site %s container: %w", spec.Name, err)
	}
	site.container = cont
	// Stop order (reverse of registration): the NTCP server drains first —
	// while the container is still serving, so a mid-step coordinator sees
	// the retryable drain code — then the container shuts down.
	site.sup.Adopt("container", runtime.Funcs{
		StopFunc:    cont.Stop,
		HealthyFunc: cont.Healthy,
	}, runtime.WithDrain(time.Second))
	// Dispatch through currentServer, not the concrete instance: after a
	// chaos restart the supervisor must drain and health-check the live
	// server, not the abandoned pre-crash one.
	site.sup.Adopt("ntcp-server", runtime.Funcs{
		StopFunc:    func(ctx context.Context) error { return site.currentServer().Stop(ctx) },
		HealthyFunc: func() error { return site.currentServer().Healthy() },
	})
	site.Addr = addr
	site.Server = server

	// DAQ channels: displacement and force, fed by the recording plugin.
	site.DAQ = daq.New(spec.Name, 1)
	noise := 0.0
	if spec.Noisy {
		noise = 1e-6
	}
	if err := site.DAQ.AddChannel(daq.Channel{
		Name: spec.Name + ".disp", Kind: daq.LVDT, Units: "m",
		Read: site.LastDisp, NoiseStd: noise,
	}); err != nil {
		_ = site.Stop()
		return nil, err
	}
	if err := site.DAQ.AddChannel(daq.Channel{
		Name: spec.Name + ".force", Kind: daq.LoadCell, Units: "N",
		Read: site.LastForce, NoiseStd: noise * 1e4,
	}); err != nil {
		_ = site.Stop()
		return nil, err
	}
	site.DAQ.AttachHub(site.Hub)
	site.sup.Adopt("hub", runtime.StopFunc(site.Hub.Close))
	if spec.Relay {
		// Relay tier: DAQ hub → LocalRelay → relay hub → viewers. Stop
		// order (reverse of adoption): the relay forwarder stops first,
		// then its hub closes, then the DAQ hub above.
		site.RelayHub = nsds.NewHub()
		site.RelayHub.UseTracer(site.Tracer)
		site.RelayHub.UseTelemetry(site.Telemetry, "relay")
		lr, err := nsds.NewLocalRelay(site.Hub, site.RelayHub)
		if err != nil {
			_ = site.Stop()
			return nil, fmt.Errorf("most: site %s relay: %w", spec.Name, err)
		}
		site.relay = lr
		site.sup.Adopt("relay-hub", runtime.StopFunc(site.RelayHub.Close))
		site.sup.Adopt("relay", runtime.StopFunc(lr.Stop))
	}

	// Telepresence camera watching the specimen.
	site.Camera = telepresence.NewCamera(spec.Name+"-cam1", site.LastDisp)

	// Every component was adopted already-running; Start only flips the
	// supervisor ready so Healthy/Ready report a sane aggregate state.
	if err := site.sup.Start(context.Background()); err != nil {
		_ = site.Stop()
		return nil, err
	}
	return site, nil
}

// coordSite binds a running site into the coordinator topology. reg is the
// coordinator-side registry shared across all sites' NTCP clients (and the
// coordinator itself), so a run reports WAN round-trip latency and recovery
// counts in one place.
func (s *Site) coordSite(cred *gsi.Credential, trust *gsi.TrustStore, retry core.RetryPolicy, reg *telemetry.Registry, tracer *trace.Tracer) coord.Site {
	og := ogsi.NewClient("http://"+s.Addr, cred, trust)
	// A pinned keep-alive transport per site underneath the fault injector:
	// the long-lived multiplexed site connection, so no step after the
	// first pays TCP setup — while injected latency and failures still
	// apply once per signed envelope.
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(s.Injector, ogsi.NewPinnedTransport(2))}
	og.Tracer = tracer
	return coord.Site{
		Name:         s.Spec.Name,
		Client:       core.NewClientWithTelemetry(og, retry, reg).LabelSite(s.Spec.Name),
		ControlPoint: s.Spec.Point,
		DOFs:         append([]int(nil), s.Spec.DOFs...),
	}
}
