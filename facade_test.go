package neesgrid

import (
	"context"
	"testing"
	"time"
)

// The façade must support the full documented user journey without touching
// internal packages by name.

func TestFacadeQuickstartFlow(t *testing.T) {
	ctx := context.Background()
	plugin := &SubstructurePlugin{
		Point: "drift", NDOF: 1,
		Apply: func(d []float64) ([]float64, error) { return []float64{2e6 * d[0]}, nil },
	}
	policy := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.05}}}
	server := NewNTCPServer(plugin, policy, NTCPServerOptions{})

	rec, err := server.Propose(ctx, "user", &Proposal{
		Name:    "t1",
		Actions: []Action{{ControlPoint: "drift", Displacements: []float64{0.01}}},
	})
	if err != nil || rec.State != TxState("accepted") {
		t.Fatalf("propose = %+v, %v", rec, err)
	}
	rec, err = server.Execute(ctx, "user", "t1")
	if err != nil || rec.Results[0].Forces[0] != 2e4 {
		t.Fatalf("execute = %+v, %v", rec, err)
	}
}

func TestFacadeSecuredRemoteFlow(t *testing.T) {
	ctx := context.Background()
	ca, err := NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore(ca.Cert)
	siteCred, _ := ca.Issue("/O=NEES/CN=site", time.Hour)
	userCred, _ := ca.Issue("/O=NEES/CN=user", time.Hour)
	gm := NewGridmap(map[string]string{"/O=NEES/CN=user": "user"})

	container := NewContainer(siteCred, trust, gm)
	plugin := &SubstructurePlugin{
		Point: "drift", NDOF: 1,
		Apply: func(d []float64) ([]float64, error) { return []float64{1e6 * d[0]}, nil },
	}
	container.AddService(NewNTCPServer(plugin, nil, NTCPServerOptions{}).Service())
	addr, err := container.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stopCtx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		_ = container.Stop(stopCtx)
	}()

	client := NewNTCPClient(NewOGSIClient("http://"+addr, userCred, trust), DefaultRetry)
	rec, err := client.Run(ctx, &Proposal{
		Name:    "remote-1",
		Actions: []Action{{ControlPoint: "drift", Displacements: []float64{0.005}}},
	})
	if err != nil || rec.Results[0].Forces[0] != 5e3 {
		t.Fatalf("remote run = %+v, %v", rec, err)
	}
}

func TestFacadeExperimentSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  ExperimentSpec
		sites int
	}{
		{"most-sim", MOSTSpec(VariantSimulation, DefaultRetry), 3},
		{"dry-run", DryRunSpec(VariantSimulation), 3},
		{"public-run", PublicRunSpec(VariantSimulation), 3},
		{"minimost", MiniMOSTSpec(false), 2},
		{"soil", SoilStructureSpec(), 4},
	} {
		if len(tc.spec.Sites) != tc.sites {
			t.Errorf("%s: %d sites, want %d", tc.name, len(tc.spec.Sites), tc.sites)
		}
	}
	if len(PublicRunSpec(VariantSimulation).Faults) == 0 {
		t.Fatal("public run spec has no fault schedule")
	}
}

func TestFacadeShortExperimentRun(t *testing.T) {
	spec := MiniMOSTSpec(false)
	spec.Steps = 40
	exp, err := BuildExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Stop()
	res, err := exp.Run(context.Background())
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	if res.Report.StepsCompleted != 40 {
		t.Fatalf("report = %+v", res.Report)
	}
}

func TestFacadeGroundMotionAndModels(t *testing.T) {
	cfg := ElCentroLike()
	rec, err := GenerateGroundMotion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PGA() == 0 {
		t.Fatal("flat record")
	}
	if MOSTConfig().Steps != 1500 {
		t.Fatal("MOST grid wrong")
	}
	if MiniMOSTConfig().Mass >= MOSTConfig().Mass {
		t.Fatal("Mini-MOST should be far lighter than MOST")
	}
}

func TestFacadeStreamingAndCollab(t *testing.T) {
	hub := NewStreamHub()
	defer hub.Close()
	viewer := NewDataViewer(0)
	sub, err := hub.SubscribeBatches(8, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { viewer.FeedFrom(sub.Batches()); close(done) }()
	hub.PublishBatch([]StreamSample{{Channel: "c", T: 0.01, Value: 1}})
	hub.Close()
	<-done
	if len(viewer.Window("c", 0, 1)) != 1 {
		t.Fatal("viewer missed the sample")
	}

	ws := NewWorkspace("facade")
	s, err := ws.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Chat(s.Token, "main", "hello"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRigAndFaultInjector(t *testing.T) {
	cfg := DefaultActuator()
	cfg.PositionNoiseStd, cfg.ForceNoiseStd = 0, 0
	rig := NewColumnRig("facade", cfg, 1000, 0, 0)
	f, err := rig.Apply([]float64{0.01})
	if err != nil || f[0] < 9 || f[0] > 11 {
		t.Fatalf("rig force = %v, %v", f, err)
	}
	in := NewFaultInjector(NetworkProfile{})
	in.FailNext(1)
	if in.Injected() != 0 {
		t.Fatal("injector counted before any call")
	}
	_ = WAN2003 // profile constant exported
}
