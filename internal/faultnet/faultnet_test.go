package faultnet

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
)

func TestInjectorFailNext(t *testing.T) {
	in := NewInjector(LAN)
	in.FailNext(2)
	for i := 0; i < 2; i++ {
		if _, err := in.next(); err == nil {
			t.Fatalf("call %d should fail", i)
		}
	}
	if _, err := in.next(); err != nil {
		t.Fatalf("call 3 should pass: %v", err)
	}
	if in.Injected() != 2 || in.Calls() != 3 {
		t.Fatalf("counters = %d/%d", in.Injected(), in.Calls())
	}
}

func TestInjectorOutage(t *testing.T) {
	in := NewInjector(LAN)
	in.SetOutage(true)
	for i := 0; i < 3; i++ {
		if _, err := in.next(); err == nil {
			t.Fatal("outage should fail every call")
		}
	}
	in.SetOutage(false)
	if _, err := in.next(); err != nil {
		t.Fatal("cleared outage should pass")
	}
}

func TestInjectorDropRateDeterministic(t *testing.T) {
	p := Profile{DropRate: 0.5, Seed: 42}
	run := func() []bool {
		in := NewInjector(p)
		out := make([]bool, 100)
		for i := range out {
			_, err := in.next()
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("drop sequence not deterministic")
		}
		if a[i] {
			drops++
		}
	}
	if drops < 30 || drops > 70 {
		t.Fatalf("drop count %d implausible for rate 0.5", drops)
	}
}

func TestScheduleOutageWindow(t *testing.T) {
	in := NewInjector(LAN)
	in.ScheduleOutage(2, 3) // calls 3..5 fail
	for i := 1; i <= 7; i++ {
		_, err := in.next()
		wantFail := i >= 3 && i <= 5
		if gotFail := err != nil; gotFail != wantFail {
			t.Fatalf("call %d: fail=%v, want %v", i, gotFail, wantFail)
		}
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d, want 3", in.Injected())
	}
}

func TestScheduleOutageOverlapAndBadArgs(t *testing.T) {
	in := NewInjector(LAN)
	in.ScheduleOutage(-1, 5) // no-ops: never scheduled
	in.ScheduleOutage(0, 0)
	in.ScheduleOutage(0, 2) // calls 1..2
	in.ScheduleOutage(1, 3) // calls 2..4; overlap with the first on call 2
	for i := 1; i <= 5; i++ {
		_, err := in.next()
		wantFail := i <= 4
		if gotFail := err != nil; gotFail != wantFail {
			t.Fatalf("call %d: fail=%v, want %v", i, gotFail, wantFail)
		}
	}
	if in.Injected() != 4 {
		t.Fatalf("injected = %d, want 4 (overlap must not double-count)", in.Injected())
	}
}

// The zero-value seed is still a fixed seed: two injectors built from the
// same profile — including Seed == 0 — must replay the same drop decisions
// and jittered delays call for call. Chaos scenarios lean on this; a
// time-seeded fallback for Seed == 0 would silently break byte-replay.
func TestInjectorZeroSeedDeterministic(t *testing.T) {
	p := Profile{DropRate: 0.3, Jitter: 3 * time.Millisecond, Seed: 0}
	a, b := NewInjector(p), NewInjector(p)
	drops := 0
	for i := 0; i < 200; i++ {
		da, ea := a.next()
		db, eb := b.next()
		if (ea != nil) != (eb != nil) || da != db {
			t.Fatalf("call %d diverged: (%v,%v) vs (%v,%v)", i, da, ea, db, eb)
		}
		if ea != nil {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("drop count %d implausible for rate 0.3", drops)
	}
}

func TestInjectorExtraDelay(t *testing.T) {
	in := NewInjector(Profile{Latency: 2 * time.Millisecond})
	in.SetExtraDelay(5 * time.Millisecond)
	if d, err := in.next(); err != nil || d != 7*time.Millisecond {
		t.Fatalf("delay = %v, %v; want 7ms", d, err)
	}
	in.SetExtraDelay(-time.Millisecond) // clamped to zero
	if in.ExtraDelay() != 0 {
		t.Fatalf("negative extra delay not clamped: %v", in.ExtraDelay())
	}
	if d, err := in.next(); err != nil || d != 2*time.Millisecond {
		t.Fatalf("delay = %v, %v; want bare profile latency", d, err)
	}
}

func TestInjectorLatency(t *testing.T) {
	in := NewInjector(Profile{Latency: 10 * time.Millisecond})
	d, err := in.next()
	if err != nil {
		t.Fatal(err)
	}
	if d != 10*time.Millisecond {
		t.Fatalf("delay = %v", d)
	}
}

func TestNetErrorInterface(t *testing.T) {
	var err net.Error = &NetError{Op: "x", Msg: "y"}
	if !err.Timeout() || err.Error() != "x: y" {
		t.Fatalf("NetError = %v", err)
	}
}

func TestTransportInjection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := NewInjector(LAN)
	cl := &http.Client{Transport: NewTransportOver(in, http.DefaultTransport)}
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	in.FailNext(1)
	if _, err := cl.Get(srv.URL); err == nil {
		t.Fatal("injected failure not surfaced")
	}
	var ne *NetError
	resp, err = cl.Get(srv.URL)
	if err != nil {
		t.Fatalf("post-failure call should pass: %v", err)
	}
	_ = resp.Body.Close()
	_ = ne
}

func TestTransportHonorsContextDuringDelay(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	defer srv.Close()
	in := NewInjector(Profile{Latency: 5 * time.Second})
	cl := &http.Client{Transport: NewTransportOver(in, http.DefaultTransport)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	_, err := cl.Do(req)
	if err == nil {
		t.Fatal("expected context timeout")
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored context cancellation")
	}
}

func TestInjectorTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := NewInjector(Profile{Latency: time.Millisecond})
	in.UseTelemetry(reg)
	in.FailNext(1)
	if _, err := in.next(); err == nil {
		t.Fatal("first call should fail")
	}
	if _, err := in.next(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["faultnet.calls"] != 2 || snap.Counters["faultnet.injected"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Histograms["faultnet.delay.seconds"].Count != 2 {
		t.Fatalf("delay histogram = %+v", snap.Histograms["faultnet.delay.seconds"])
	}
}

// ExtraDelay returns the current extra per-call delay.
func (in *Injector) ExtraDelay() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.extraDelay
}
