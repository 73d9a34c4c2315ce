package core

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"neesgrid/internal/faultnet"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
)

// The fault-tolerance contract, exercised through the real injector: a
// retrying client rides out a 2-failure transient outage (§3.4's "several
// transient network failures"), while a NoRetry client — the configuration
// the public MOST run's coordinator effectively had — dies on the first.

func TestDefaultRetryRecoversThroughInjectedOutage(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	in := faultnet.NewInjector(faultnet.LAN)
	reg := telemetry.NewRegistry()
	in.UseTelemetry(reg)
	og := f.ogsiClient()
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(2))}
	cl := NewClientWithTelemetry(og, DefaultRetry, reg)

	in.FailNext(2)
	rec, err := cl.Run(context.Background(), proposal("faultnet-step-1", 0.02))
	if err != nil {
		t.Fatalf("DefaultRetry should recover through 2 injected failures: %v", err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state = %v", rec.State)
	}
	st := cl.Stats()
	if st.Recovered == 0 || st.Retries < 2 {
		t.Fatalf("stats = %+v, want recovery after ≥2 retries", st)
	}
	// Injector and client share the registry: injected faults and the
	// recoveries they forced are correlated in one snapshot.
	snap := reg.Snapshot()
	if snap.Counters["faultnet.injected"] != 2 {
		t.Fatalf("faultnet.injected = %d", snap.Counters["faultnet.injected"])
	}
	if snap.Counters["ntcp.client.recovered"] == 0 {
		t.Fatal("recovery not visible in shared registry")
	}
}

// A scheduled outage window that opens while the server is draining: the
// first retry attempts die at the transport (the partition), and once the
// window is burned through the surviving attempt reaches the draining
// server and gets the protocol-level retryable refusal — two independent
// failure layers composing without eating each other's call budget.
func TestScheduledOutageBeginningDuringDrain(t *testing.T) {
	plug := newSlowPlugin()
	f := newFixture(t, plug, nil)
	in := faultnet.NewInjector(faultnet.LAN)
	og := f.ogsiClient()
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(2))}
	cl := NewClient(og, RetryPolicy{Attempts: 4, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond})

	// Put the server mid-drain: an in-flight actuator move pins Stop.
	ctx := context.Background()
	if _, err := f.server.Propose(ctx, "coord", proposal("drain-pin", 0.01)); err != nil {
		t.Fatal(err)
	}
	startDetachedExecution(t, f.server, "drain-pin")
	<-plug.started
	stopCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.server.Stop(stopCtx) }()
	waitFor(t, func() bool { return f.server.Healthy() != nil })

	// The partition opens now, mid-drain, for exactly two calls.
	in.ScheduleOutage(0, 2)
	_, err := cl.Run(ctx, proposal("mid-drain-outage", 0.02))
	if err == nil {
		t.Fatal("drain outlasts the retry budget; Run should fail")
	}
	// The terminal error must be the server's refusal, not the partition's
	// transport error: the window burned calls 1-2, attempts 3-4 got through
	// to the draining server.
	var re *ogsi.RemoteError
	if !errors.As(err, &re) || re.Code != ogsi.CodeUnavailable {
		t.Fatalf("error after window = %v, want RemoteError %q", err, ogsi.CodeUnavailable)
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("injected = %d, want the whole scheduled window consumed", got)
	}
	if st := cl.Stats(); st.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (both failure layers classified transient)", st.Retries)
	}

	close(plug.release)
	if err := <-done; err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestNoRetryDiesOnInjectedFailure(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	in := faultnet.NewInjector(faultnet.LAN)
	og := f.ogsiClient()
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(2))}
	cl := NewClient(og, NoRetry)

	in.FailNext(1)
	if _, err := cl.Run(context.Background(), proposal("faultnet-step-2", 0.02)); err == nil {
		t.Fatal("NoRetry should fail on an injected transport error")
	}
	if st := cl.Stats(); st.Retries != 0 || st.Recovered != 0 {
		t.Fatalf("NoRetry stats = %+v, want no retries", st)
	}

	// The same outage cleared: the next attempt goes straight through,
	// proving the failure was transient, not the server.
	if _, err := cl.Run(context.Background(), proposal("faultnet-step-3", 0.02)); err != nil {
		t.Fatalf("post-outage call should succeed: %v", err)
	}
}
