package core

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/faultnet"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
)

// slowPlugin blocks each execution until release fires (or ctx expires),
// modelling an actuator mid-move at drain time.
type slowPlugin struct {
	release chan struct{}
	started chan struct{} // one tick per execution entering the plugin
}

func newSlowPlugin() *slowPlugin {
	return &slowPlugin{release: make(chan struct{}), started: make(chan struct{}, 16)}
}

func (p *slowPlugin) Validate(context.Context, []Action) error { return nil }

func (p *slowPlugin) Execute(ctx context.Context, actions []Action) ([]Result, error) {
	p.started <- struct{}{}
	select {
	case <-p.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	results := make([]Result, len(actions))
	for i, a := range actions {
		results[i] = Result{ControlPoint: a.ControlPoint,
			Displacements: a.Displacements,
			Forces:        []float64{0}}
	}
	return results, nil
}

func events(reg *telemetry.Registry, name string) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range reg.Events().Events() {
		if e.Event == name {
			out = append(out, e)
		}
	}
	return out
}

// An in-flight execution that finishes inside the drain deadline commits
// normally: the drain waits, the transaction ends Executed, and the journal
// records a clean drain.
func TestStopWaitsForInFlightExecution(t *testing.T) {
	plug := newSlowPlugin()
	s := NewServer(plug, nil, ServerOptions{})
	ctx := context.Background()
	if _, err := s.Propose(ctx, "coord", proposal("drain-wait", 0.01)); err != nil {
		t.Fatal(err)
	}
	startDetachedExecution(t, s, "drain-wait")
	<-plug.started

	stopCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Stop(stopCtx) }()

	// While draining: not healthy, and new proposals are refused with the
	// retryable code.
	waitFor(t, func() bool { return s.Healthy() != nil })
	if _, err := s.Propose(ctx, "coord", proposal("too-late", 0.01)); !isUnavailable(err) {
		t.Fatalf("Propose during drain = %v, want CodeUnavailable", err)
	}

	close(plug.release) // the actuator move completes within the deadline
	if err := <-done; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	rec, err := s.Get("drain-wait")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state after drain = %v, want Executed", rec.State)
	}
	evs := events(s.Telemetry(), "drain-complete")
	if len(evs) != 1 {
		t.Fatalf("drain-complete events = %d, want 1", len(evs))
	}
	if evs[0].Fields["cancelled"] != int(0) && evs[0].Fields["cancelled"] != 0 {
		t.Fatalf("drain-complete cancelled = %v, want 0", evs[0].Fields["cancelled"])
	}
	if len(events(s.Telemetry(), "drain-cancelled")) != 0 {
		t.Fatal("clean drain should not journal a cancellation")
	}
}

// An execution that outlives the drain deadline is cancelled through the
// server's base context and journalled as a drain survivor; the
// transaction fails rather than hanging.
func TestStopCancelsOverdueExecutionAndJournals(t *testing.T) {
	plug := newSlowPlugin() // release never fires: only ctx ends it
	s := NewServer(plug, nil, ServerOptions{})
	ctx := context.Background()
	if _, err := s.Propose(ctx, "coord", proposal("drain-overdue", 0.01)); err != nil {
		t.Fatal(err)
	}
	startDetachedExecution(t, s, "drain-overdue")
	<-plug.started

	stopCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := s.Stop(stopCtx); err != nil {
		// The plugin honours cancellation, so Stop must succeed after
		// cancelling the survivor.
		t.Fatalf("Stop: %v", err)
	}
	rec, err := s.Get("drain-overdue")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed {
		t.Fatalf("state after cancelled drain = %v, want Failed", rec.State)
	}
	if !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("record error = %q, want context cancellation", rec.Error)
	}
	evs := events(s.Telemetry(), "drain-cancelled")
	if len(evs) != 1 {
		t.Fatalf("drain-cancelled events = %d, want 1", len(evs))
	}
	names, _ := evs[0].Fields["transactions"].([]string)
	if len(names) != 1 || names[0] != "drain-overdue" {
		t.Fatalf("journalled survivors = %v, want [drain-overdue]", evs[0].Fields["transactions"])
	}
}

// Stop is idempotent and the server stays terminal: proposals after stop
// still get the retryable code, replays of decided transactions still
// answer from the table (the at-most-once contract outlives the drain).
func TestStopIdempotentAndRepliesAfterStop(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	ctx := context.Background()
	if _, err := s.Propose(ctx, "coord", proposal("pre-stop", 0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, "coord", "pre-stop"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		r, err := s.Get("pre-stop")
		return err == nil && r.State == StateExecuted
	})
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(ctx); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if _, err := s.Propose(ctx, "coord", proposal("post-stop", 0.01)); !isUnavailable(err) {
		t.Fatalf("Propose after stop = %v, want CodeUnavailable", err)
	}
	// Replay of the decided transaction still answers from the table.
	rec, err := s.Propose(ctx, "coord", proposal("pre-stop", 0.01))
	if err != nil {
		t.Fatalf("replay after stop: %v", err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("replay state = %v", rec.State)
	}
}

// The fast path routes through the same gate: ProposeAndExecute during
// drain is refused with the retryable code.
func TestFastPathRefusedDuringDrain(t *testing.T) {
	plug := newSlowPlugin()
	s := NewServer(plug, nil, ServerOptions{})
	ctx := context.Background()
	if _, err := s.Propose(ctx, "coord", proposal("fp-drain", 0.01)); err != nil {
		t.Fatal(err)
	}
	startDetachedExecution(t, s, "fp-drain")
	<-plug.started
	done := make(chan error, 1)
	stopCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	go func() { done <- s.Stop(stopCtx) }()
	waitFor(t, func() bool { return s.Healthy() != nil })
	if _, err := s.ProposeAndExecute(ctx, "coord", proposal("fp-new", 0.01)); !isUnavailable(err) {
		t.Fatalf("ProposeAndExecute during drain = %v, want CodeUnavailable", err)
	}
	close(plug.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The satellite scenario end-to-end over a real container and a faultnet
// WAN transport: a retrying client whose call lands mid-drain sees the
// retryable NTCP code — not a connection reset — because the NTCP server
// drains before the container listener closes (the site/daemon stop
// order).
func TestRetryingClientSeesRetryableCodeDuringDrain(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)

	in := faultnet.NewInjector(faultnet.WAN2003)
	og := f.ogsiClient()
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(2))}
	cl := NewClient(og, RetryPolicy{Attempts: 4, Backoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond})

	// Begin the server drain; the container from newFixture stays up (its
	// cleanup shuts it down after the test), mirroring the supervisor's
	// reverse stop order.
	stopCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = f.server.Stop(stopCtx)
	}()
	waitFor(t, func() bool { return f.server.Healthy() != nil })

	_, err := cl.Run(context.Background(), proposal("mid-drain", 0.02))
	if err == nil {
		t.Fatal("drain outlasts the retry budget; Run should fail")
	}
	var re *ogsi.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("client error = %v (%T), want RemoteError over the wire, not a transport reset", err, err)
	}
	if re.Code != ogsi.CodeUnavailable {
		t.Fatalf("remote code = %q, want %q", re.Code, ogsi.CodeUnavailable)
	}
	// Every retry attempt reached the server and was answered — proof the
	// failures were protocol-level refusals, not connection resets.
	if st := cl.Stats(); st.Retries < 3 {
		t.Fatalf("client retries = %d, want the full retry budget (retryable code classified as transient)", st.Retries)
	}
	wg.Wait()
}

// startDetachedExecution kicks off an execution and lets the request
// context lapse so it runs detached — the at-most-once contract keeps it
// going server-side, which is exactly the in-flight work a drain must
// handle.
func startDetachedExecution(t *testing.T, s *Server, name string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Execute(ctx, "coord", name); !isUnavailable(err) {
		t.Fatalf("detaching Execute(%q) = %v, want still-executing CodeUnavailable", name, err)
	}
}

func isUnavailable(err error) bool {
	var oe *ogsi.OpError
	if errors.As(err, &oe) {
		return oe.Code == ogsi.CodeUnavailable
	}
	var re *ogsi.RemoteError
	if errors.As(err, &re) {
		return re.Code == ogsi.CodeUnavailable
	}
	return false
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
