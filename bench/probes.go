package main

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/daq"
	"neesgrid/internal/gridftp"
	"neesgrid/internal/groundmotion"
	"neesgrid/internal/gsi"
	"neesgrid/internal/most"
	"neesgrid/internal/nsds"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/repo"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
)

// probe calls fn n times, each under a span, and returns the median call
// time and the heap allocations per call.
func probe(tr *tracer, name string, n int, fn func(i int) error) (p50, allocs float64, err error) {
	times := make([]float64, n)
	before := mallocs()
	for i := 0; i < n; i++ {
		sp := tr.start(name, 0, nil)
		start := time.Now()
		err := fn(i)
		times[i] = time.Since(start).Seconds()
		sp.end()
		if err != nil {
			return 0, 0, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	allocs = float64(mallocs()-before) / float64(n)
	return percentile(sorted(times), 50), allocs, nil
}

// probes measures each layer alone, through its public functions, with
// fixed iteration counts scaled by s.scale. Results land in layer.
func probes(s *settings, layer map[string]float64) error {
	for _, p := range []func(*settings, map[string]float64) error{
		probeMachine, probeStructural, probeGSI, probeNTCP, probeBackends, probeStreaming, probeArchive,
	} {
		if err := p(s, layer); err != nil {
			return err
		}
	}
	return nil
}

// probeMachine times fixed standard-library work (Ed25519 signing and
// SHA-256 over an envelope-sized message) that no change to the repository
// can move: when it differs between two traced passes, the machine differed.
// It is printed beside the figures; nothing is divided by it.
func probeMachine(s *settings, layer map[string]float64) error {
	_, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		return err
	}
	msg := make([]byte, 512)
	layer["machine.kernel_s_p50"], _, err = probe(nil, "machine.kernel", s.size(2000, 20), func(int) error {
		digest := sha256.Sum256(ed25519.Sign(key, msg))
		msg[0] = digest[0]
		return nil
	})
	return err
}

func probeStructural(s *settings, layer map[string]float64) error {
	steps := s.size(1500, 100)
	frame := structural.MOSTConfig()
	var ground *groundmotion.Record
	p50, _, err := probe(s.tr, "groundmotion.Generate", 5, func(int) (err error) {
		ground, err = record(s.seed, frame.Dt, steps)
		return err
	})
	if err != nil {
		return err
	}
	layer["groundmotion.generate_s"] = p50

	var runAllocs float64
	p50, runAllocs, err = probe(s.tr, "structural.Run", 5, func(int) error {
		a, err := frame.Assembly()
		if err != nil {
			return err
		}
		_, err = structural.Run(frame.System(a), structural.NewExplicitNewmark(),
			structural.RunOptions{Dt: frame.Dt, Steps: steps, Ground: ground.At})
		return err
	})
	layer["structural.step_s_p50"] = p50 / float64(steps)
	layer["structural.allocs_per_step"] = runAllocs / float64(steps)
	return err
}

func probeGSI(s *settings, layer map[string]float64) error {
	ca, err := gsi.NewAuthority("/O=NEES/CN=bench CA", time.Hour)
	if err != nil {
		return err
	}
	cred, err := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	rand.New(rand.NewSource(s.seed)).Read(payload)
	n := s.size(2000, 20)
	var buf []byte
	if layer["gsi.sign_s_p50"], _, err = probe(s.tr, "gsi.AppendSignedEnvelope", n, func(int) (err error) {
		buf, err = gsi.AppendSignedEnvelope(buf[:0], cred, payload)
		return err
	}); err != nil {
		return err
	}
	env, err := gsi.Sign(cred, payload)
	if err != nil {
		return err
	}
	now := time.Now()
	for name, capacity := range map[string]int{"gsi.open_cached_s_p50": gsi.DefaultChainCacheCapacity, "gsi.open_uncached_s_p50": 0} {
		trust := gsi.NewTrustStore(ca.Cert)
		trust.SetCacheCapacity(capacity)
		if layer[name], _, err = probe(s.tr, "gsi.TrustStore.Open", n, func(int) error {
			_, _, err := trust.Open(env, now)
			return err
		}); err != nil {
			return err
		}
	}
	layer["gsi.issue_s_p50"], _, err = probe(s.tr, "gsi.Authority.Issue", s.size(200, 10), func(i int) error {
		_, err := ca.Issue(fmt.Sprintf("/O=NEES/CN=job-%d", i), time.Hour)
		return err
	})
	return err
}

// loopbackSite is one container hosting an NTCP server over a trivial
// plugin plus a no-op service, with a signed client on a pinned connection.
type loopbackSite struct {
	cont   *ogsi.Container
	server *core.Server
	og     *ogsi.Client
	ntcp   *core.Client
}

func newLoopbackSite() (*loopbackSite, error) {
	ca, err := gsi.NewAuthority("/O=NEES/CN=bench CA", time.Hour)
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore(ca.Cert)
	siteCred, err := ca.Issue("/O=NEES/CN=site", time.Hour)
	if err != nil {
		return nil, err
	}
	cred, err := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	if err != nil {
		return nil, err
	}
	l := &loopbackSite{}
	l.cont = ogsi.NewContainer(siteCred, trust, gsi.NewGridmap(map[string]string{cred.Identity(): "coord"}))
	l.server = core.NewServer(&core.SubstructurePlugin{Point: "drift", NDOF: 1,
		Apply: func(d []float64) ([]float64, error) { return []float64{1e6 * d[0]}, nil }}, nil, core.ServerOptions{})
	l.cont.AddService(l.server.Service())
	noop := ogsi.NewService("noop")
	noop.RegisterOp("nop", func(context.Context, ogsi.Caller, json.RawMessage) (any, error) { return struct{}{}, nil })
	l.cont.AddService(noop)
	addr, err := l.cont.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.og = ogsi.NewClient("http://"+addr, cred, trust)
	l.og.HTTP = &http.Client{Transport: ogsi.NewPinnedTransport(2)}
	l.ntcp = core.NewClient(l.og, core.DefaultRetry)
	return l, nil
}

func (l *loopbackSite) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = l.cont.Stop(ctx)
}

func proposal(name string, i int) *core.Proposal {
	return &core.Proposal{Name: name, Actions: []core.Action{{
		ControlPoint: "drift", Displacements: []float64{0.01 * math.Sin(float64(i)/10)},
	}}}
}

func probeNTCP(s *settings, layer map[string]float64) error {
	l, err := newLoopbackSite()
	if err != nil {
		return err
	}
	defer l.close()
	ctx := context.Background()
	n := s.size(1000, 20)

	for i := 0; i < 20; i++ { // connection and chain cache warm
		if err := l.og.Call(ctx, "noop", "nop", struct{}{}, nil); err != nil {
			return err
		}
	}
	if layer["ogsi.call_s_p50"], layer["ogsi.call_allocs"], err = probe(s.tr, "ogsi.Client.Call", n, func(int) error {
		return l.og.Call(ctx, "noop", "nop", struct{}{}, nil)
	}); err != nil {
		return err
	}
	batch := []ogsi.BatchOp{{Op: "nop", Params: struct{}{}}, {Op: "nop", Params: struct{}{}}}
	if layer["ogsi.call_batch2_s_p50"], _, err = probe(s.tr, "ogsi.Client.CallBatch", n, func(int) error {
		_, err := l.og.CallBatch(ctx, "noop", batch)
		return err
	}); err != nil {
		return err
	}
	// What a call costs beyond its two signatures and two verifications:
	// codec, HTTP and dispatch.
	layer["ogsi.call_residual_s"] = layer["ogsi.call_s_p50"] - 2*layer["gsi.sign_s_p50"] - 2*layer["gsi.open_cached_s_p50"]

	if layer["core.server_tx_s_p50"], _, err = probe(s.tr, "core.Server.Propose+Execute", 2*n, func(i int) error {
		name := fmt.Sprintf("tx-%d", i)
		if _, err := l.server.Propose(ctx, "bench", proposal(name, i)); err != nil {
			return err
		}
		_, err := l.server.Execute(ctx, "bench", name)
		return err
	}); err != nil {
		return err
	}
	n /= 2
	executed := func(rec *core.Record, err error) error {
		if err == nil && rec.State != core.StateExecuted {
			err = fmt.Errorf("transaction %s ended %s", rec.Name, rec.State)
		}
		return err
	}
	if layer["core.run_s_p50"], layer["core.run_allocs"], err = probe(s.tr, "core.Client.Run", n, func(i int) error {
		return executed(l.ntcp.Run(ctx, proposal(fmt.Sprintf("run-%d", i), i)))
	}); err != nil {
		return err
	}
	if layer["core.run_fast_s_p50"], layer["core.run_fast_allocs"], err = probe(s.tr, "core.Client.RunFast", n, func(i int) error {
		return executed(l.ntcp.RunFast(ctx, proposal(fmt.Sprintf("fast-%d", i), i)))
	}); err != nil {
		return err
	}
	if _, err := l.ntcp.Propose(ctx, proposal("pipe-0", 0)); err != nil {
		return err
	}
	layer["core.exec_propose_s_p50"], _, err = probe(s.tr, "core.Client.ExecuteAndPropose", n, func(i int) error {
		rec, _, err := l.ntcp.ExecuteAndPropose(ctx, fmt.Sprintf("pipe-%d", i), proposal(fmt.Sprintf("pipe-%d", i+1), i+1))
		return executed(rec, err)
	})
	return err
}

// probeBackends prices each kind of site back end: propose+execute straight
// into a one-site topology's NTCP server, less the same transaction over a
// trivial plugin.
func probeBackends(s *settings, layer map[string]float64) error {
	ctx := context.Background()
	n := s.size(300, 10)
	frame := structural.MOSTConfig()
	for name, kind := range map[string]most.BackendKind{
		"simulation": most.KindSimulation, "mplugin": most.KindMpluginSim,
		"shore-western": most.KindShoreWestern, "xpc": most.KindXPC,
	} {
		exp, err := most.Build(most.Spec{Name: "probe-" + name, Frame: frame, Sites: []most.SiteSpec{{
			Name: "site", Kind: kind, Point: "drift", K: frame.LeftK, Fy: frame.LeftFy, Hardening: frame.Hardening,
		}}})
		if err != nil {
			return err
		}
		server := exp.Sites[0].Server
		p50, _, err := probe(s.tr, "plugin."+name, n, func(i int) error {
			tx := fmt.Sprintf("tx-%d", i)
			if _, err := server.Propose(ctx, "bench", proposal(tx, i)); err != nil {
				return err
			}
			rec, err := server.Execute(ctx, "bench", tx)
			if err == nil && rec.State != core.StateExecuted {
				err = fmt.Errorf("%s ended %s: %s", tx, rec.State, rec.Error)
			}
			return err
		})
		if stopErr := exp.Stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		layer["plugin.execute_s_p50."+name] = p50 - layer["core.server_tx_s_p50"]
	}
	cfg := control.DefaultActuator()
	cfg.PositionNoiseStd, cfg.ForceNoiseStd = 0, 0
	rig := control.NewColumnRig("probe", cfg, frame.LeftK, frame.LeftFy, frame.Hardening)
	var err error
	layer["control.rig_apply_s_p50"], _, err = probe(s.tr, "control.Rig.Apply", s.size(2000, 20), func(i int) error {
		_, err := rig.Apply([]float64{0.01 * math.Sin(float64(i)/10)})
		return err
	})
	return err
}

func probeStreaming(s *settings, layer map[string]float64) error {
	n := s.size(1000, 20)
	block := make([]nsds.Sample, streamChannels)
	for _, subs := range []int{10, 1000} {
		hub := nsds.NewHub()
		chans := make([]<-chan *nsds.Batch, subs)
		for i := range chans {
			sub, err := hub.SubscribeBatches(1, false)
			if err != nil {
				return err
			}
			chans[i] = sub.Batches()
		}
		p50, _, err := probe(s.tr, "nsds.Hub.PublishBatch", n, func(i int) error {
			for j := range block {
				block[j] = nsds.Sample{Channel: "uiuc.disp", T: float64(i), Value: 0.01}
			}
			hub.PublishBatch(block)
			for _, c := range chans {
				<-c
			}
			return nil
		})
		hub.Close()
		if err != nil {
			return err
		}
		layer[fmt.Sprintf("nsds.publish_batch_s_p50.subs-%d", subs)] = p50
	}

	hub := nsds.NewHub()
	defer hub.Close()
	sub, err := hub.SubscribeBatches(1, false)
	if err != nil {
		return err
	}
	d := daq.New("uiuc", s.seed)
	for c := 0; c < streamChannels; c++ {
		if err := d.AddChannel(daq.Channel{Name: fmt.Sprintf("uiuc.ch%02d", c), Kind: daq.LVDT, Units: "m",
			Read: func() float64 { return 0.01 }, NoiseStd: 1e-6}); err != nil {
			return err
		}
	}
	d.AttachHub(hub)
	layer["daq.scan_s_p50"], layer["daq.scan_allocs"], err = probe(s.tr, "daq.DAQ.Scan", 2*n, func(i int) error {
		_, err := d.Scan(i, float64(i))
		<-sub.Batches()
		return err
	})
	return err
}

func probeArchive(s *settings, layer map[string]float64) error {
	dir, err := os.MkdirTemp(s.tmp, "probe-archive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := gridftp.NewServer(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	src := filepath.Join(dir, "src.bin")
	buf := make([]byte, bulkBytes)
	rand.New(rand.NewSource(s.seed)).Read(buf)
	if err := os.WriteFile(src, buf, 0o644); err != nil {
		return err
	}
	cl := &gridftp.Client{Addr: addr}
	n := s.size(5, 1)
	for _, streams := range []int{1, 2, 4} {
		p50, _, err := probe(s.tr, "gridftp.Client.Put", n, func(i int) error {
			return cl.Put(src, fmt.Sprintf("probe/%d/%d.bin", streams, i), streams)
		})
		if err != nil {
			return err
		}
		layer[fmt.Sprintf("gridftp.put_mb_per_s.streams-%d", streams)] = bulkBytes / 1e6 / p50
	}
	p50, _, err := probe(s.tr, "gridftp.Client.Get", n, func(i int) error {
		return cl.Get(fmt.Sprintf("probe/1/%d.bin", i), filepath.Join(dir, "back.bin"), 1)
	})
	if err != nil {
		return err
	}
	layer["gridftp.get_mb_per_s.streams-1"] = bulkBytes / 1e6 / p50

	r, err := repo.New(repoOwner)
	if err != nil {
		return err
	}
	layer["nmds.create_s_p50"], _, err = probe(s.tr, "nmds.Store.Create", s.size(1000, 20), func(i int) error {
		_, err := r.Meta.Create(ingestOwner, fmt.Sprintf("data:probe/%d", i), repo.SensorDataSchema,
			map[string]any{"experiment": "bench", "site": "uiuc", "logical": fmt.Sprintf("probe/%d", i)})
		return err
	})
	return err
}

// probeObs prices the observability plane on a built three-site topology.
func probeObs(s *settings, exp *most.Experiment, layer map[string]float64) error {
	ctx := context.Background()
	n := s.size(100, 5)
	var err error
	if layer["obs.scrape_once_s_p50"], _, err = probe(s.tr, "obs.Aggregator.ScrapeOnce", n, func(int) error {
		exp.Obs().ScrapeOnce(ctx)
		return nil
	}); err != nil {
		return err
	}
	snaps := make([]telemetry.Snapshot, len(exp.Sites))
	if layer["telemetry.snapshot_s_p50"], _, err = probe(s.tr, "telemetry.Registry.Snapshot", n, func(int) error {
		for i, site := range exp.Sites {
			snaps[i] = site.Telemetry.Snapshot()
		}
		return nil
	}); err != nil {
		return err
	}
	layer["telemetry.snapshot_s_p50"] /= float64(len(exp.Sites))
	layer["obs.merge_s_p50"], _, err = probe(s.tr, "telemetry.MergeAll", n, func(int) error {
		_, err := telemetry.MergeAll(snaps...)
		return err
	})
	return err
}
