package core

import (
	"context"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/runtime"
	"neesgrid/internal/runtime/envtest"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// TestSharedClock: one NTCP server behind a container, with the site's
// tracer and registry, on one fake clock. The record's timestamps, its tx:
// element, the container's server spans and the tx-* event all read that
// clock, and the record expires exactly at its TTL on it. (The container's
// own Env, which checks credentials, stays real: bench pins
// ogsi.NewContainer, and no value read here comes from it.)
func TestSharedClock(t *testing.T) {
	t0 := time.Date(2004, 7, 30, 9, 0, 0, 0, time.UTC)
	clk := envtest.NewClock(t0)
	env := runtime.Env{Clock: clk}
	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(64)
	tr := trace.NewTracer(env, "site", rec)
	const ttl = time.Minute
	srv := newServer(env, springPlugin(100), &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.1}}},
		ServerOptions{DefaultTTL: ttl, Telemetry: reg, Tracer: tr})

	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	siteCred, _ := ca.Issue("/O=NEES/CN=site", time.Hour)
	coordCred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	cont := ogsi.NewContainer(siteCred, trust, gsi.NewGridmap(map[string]string{coordCred.Identity(): "coord"}))
	cont.UseTelemetry(reg)
	cont.UseTracer(tr)
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
	cl := NewClient(ogsi.NewClient("http://"+addr, coordCred, trust), DefaultRetry)
	ctx := context.Background()

	if _, err := cl.Propose(ctx, proposal("step-1", 0.02)); err != nil {
		t.Fatal(err)
	}
	t1 := t0.Add(time.Second)
	clk.Advance(time.Second)
	got, err := cl.Execute(ctx, "step-1")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Propose(ctx, proposal("step-2", 0.5)); err != nil || r.State != StateRejected {
		t.Fatalf("a proposal over the policy limit: %+v, %v", r, err)
	}

	for state, want := range map[TxState]time.Time{StateProposed: t0, StateAccepted: t0, StateExecuted: t1} {
		if at, ok := got.Timestamps.Get(state); !ok || !at.Equal(want) {
			t.Errorf("record's %v time = %v (set %v), want %v", state, at, ok, want)
		}
	}
	if sde, ok := srv.Service().SDEs.Get("tx:step-1"); !ok || !sde.UpdatedAt.Equal(t1) {
		t.Errorf("tx:step-1 updated at %v (present %v), want %v", sde.UpdatedAt, ok, t1)
	}
	starts := map[string][]time.Time{}
	for _, sd := range rec.Spans() {
		if sd.Kind == trace.KindServer {
			starts[sd.Name] = append(starts[sd.Name], sd.Start)
		}
	}
	if p, e := starts["ntcp.propose"], starts["ntcp.execute"]; len(p) != 2 || !p[0].Equal(t0) || !p[1].Equal(t1) || len(e) != 1 || !e[0].Equal(t1) {
		t.Errorf("server spans started at propose %v, execute %v; want [%v %v] and [%v]", p, e, t0, t1, t1)
	}
	var rejected []time.Time
	for _, ev := range reg.Events().Events() {
		if ev.Event == "tx-rejected" {
			rejected = append(rejected, ev.TS)
		}
	}
	if len(rejected) != 1 || !rejected[0].Equal(t1) {
		t.Errorf("tx-rejected events at %v, want one at %v", rejected, t1)
	}

	// step-1's lifetime began at its propose decision (t0); step-2's at t1.
	clk.Advance(ttl - time.Second - time.Nanosecond)
	if swept := srv.Service().Lifetimes.Sweep(); len(swept) != 0 {
		t.Fatalf("swept %v a nanosecond before the TTL", swept)
	}
	clk.Advance(time.Nanosecond)
	if swept := srv.Service().Lifetimes.Sweep(); len(swept) != 1 || swept[0] != "step-1" {
		t.Fatalf("swept %v at the TTL, want [step-1]", swept)
	}
	if _, ok := srv.Service().SDEs.Get("tx:step-1"); ok {
		t.Error("tx:step-1 outlived its record")
	}
}
