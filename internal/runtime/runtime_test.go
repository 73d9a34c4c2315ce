package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// recorder logs lifecycle calls so tests can assert ordering.
type recorder struct {
	mu    sync.Mutex
	calls []string
}

func (r *recorder) log(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, s)
}

func (r *recorder) got() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func (r *recorder) comp(name string, startErr, stopErr error) Component {
	return Funcs{
		StartFunc: func(context.Context) error {
			r.log("start:" + name)
			return startErr
		},
		StopFunc: func(context.Context) error {
			r.log("stop:" + name)
			return stopErr
		},
	}
}

func TestStartOrderAndReverseStop(t *testing.T) {
	rec := &recorder{}
	sup := NewSupervisor("test")
	sup.Add("a", rec.comp("a", nil, nil))
	sup.Add("b", rec.comp("b", nil, nil))
	sup.Add("c", rec.comp("c", nil, nil))

	if err := sup.Ready(); err == nil {
		t.Fatal("Ready should be non-nil before Start")
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sup.Ready(); err != nil {
		t.Fatalf("Ready after Start: %v", err)
	}
	if err := sup.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:a", "start:b", "start:c", "stop:c", "stop:b", "stop:a"}
	if got := rec.got(); !equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if err := sup.Ready(); err == nil {
		t.Fatal("Ready should be non-nil after Stop")
	}
}

func TestStartFailureRollsBackStartedComponents(t *testing.T) {
	rec := &recorder{}
	sup := NewSupervisor("test")
	sup.Add("a", rec.comp("a", nil, nil))
	sup.Add("b", rec.comp("b", errors.New("boom"), nil))
	sup.Add("c", rec.comp("c", nil, nil))

	err := sup.Start(context.Background())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Start error = %v, want boom", err)
	}
	// a started and must be rolled back; b failed; c never started.
	want := []string{"start:a", "start:b", "stop:a"}
	if got := rec.got(); !equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if err := sup.Healthy(); err == nil {
		t.Fatal("Healthy should report the failed start")
	}
	// Stop after a failed start returns the recorded cause, not a new drain.
	if err := sup.Stop(context.Background()); err == nil {
		t.Fatal("Stop after failed start should return the failure")
	}
}

func TestStartFailureReturnsRollbackErrors(t *testing.T) {
	rec := &recorder{}
	startErr := errors.New("b cannot start")
	stopErr := errors.New("a cannot stop")
	sup := NewSupervisor("test")
	sup.Add("a", rec.comp("a", nil, stopErr))
	sup.Add("b", rec.comp("b", startErr, nil))

	err := sup.Start(context.Background())
	if !errors.Is(err, startErr) || !errors.Is(err, stopErr) {
		t.Fatalf("Start error = %v, want both %q and %q", err, startErr, stopErr)
	}
	if err := sup.Stop(context.Background()); !errors.Is(err, startErr) || !errors.Is(err, stopErr) {
		t.Fatalf("Stop after failed start = %v, want the Start error", err)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	rec := &recorder{}
	sup := NewSupervisor("test")
	stopErr := errors.New("drain failed")
	sup.Add("a", rec.comp("a", nil, stopErr))
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	err1 := sup.Stop(context.Background())
	err2 := sup.Stop(context.Background())
	if err1 == nil || err2 == nil {
		t.Fatal("both Stops should report the drain error")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("second Stop returned a different error: %v vs %v", err1, err2)
	}
	if got := rec.got(); len(got) != 2 { // start:a stop:a — stop ran once
		t.Fatalf("calls = %v, want one start and one stop", got)
	}
}

func TestAdoptJoinsStopOrderWithoutStart(t *testing.T) {
	rec := &recorder{}
	sup := NewSupervisor("test")
	sup.Add("added", rec.comp("added", nil, nil))
	sup.Adopt("adopted", rec.comp("adopted", nil, nil))
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sup.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// adopted never gets Start; it stops first (registered last).
	want := []string{"start:added", "stop:adopted", "stop:added"}
	if got := rec.got(); !equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestStopWithoutStartDrainsAdopted(t *testing.T) {
	// The harness pattern: everything adopted already-running, Stop called
	// on a supervisor that never Started.
	rec := &recorder{}
	sup := NewSupervisor("test")
	sup.Adopt("x", rec.comp("x", nil, nil))
	sup.Adopt("y", rec.comp("y", nil, nil))
	if err := sup.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"stop:y", "stop:x"}
	if got := rec.got(); !equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestDrainDeadlineBoundsSlowComponent(t *testing.T) {
	sup := NewSupervisor("test")
	sup.Add("slow", Funcs{
		StopFunc: func(ctx context.Context) error {
			<-ctx.Done() // honours the deadline
			return ctx.Err()
		},
	}, WithDrain(30*time.Millisecond))
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := sup.Stop(context.Background())
	if err == nil {
		t.Fatal("slow component's deadline error should propagate")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Stop took %s; drain deadline did not bound it", elapsed)
	}
}

func TestStopShieldsDrainFromCancelledParent(t *testing.T) {
	// A SIGTERM cancels the run context before Stop is called; components
	// still deserve their drain window.
	drained := false
	sup := NewSupervisor("test")
	sup.Add("c", Funcs{
		StopFunc: func(ctx context.Context) error {
			select {
			case <-time.After(10 * time.Millisecond):
				drained = true
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sup.Stop(cancelled); err != nil {
		t.Fatalf("Stop under cancelled parent: %v", err)
	}
	if !drained {
		t.Fatal("component was not given its drain window")
	}
}

func TestNestedSupervisors(t *testing.T) {
	rec := &recorder{}
	inner := NewSupervisor("inner")
	inner.Add("i1", rec.comp("i1", nil, nil))
	outer := NewSupervisor("outer")
	outer.Add("o1", rec.comp("o1", nil, nil))
	outer.Add("inner", inner)
	if err := outer.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := inner.Ready(); err != nil {
		t.Fatalf("inner should be ready once outer started it: %v", err)
	}
	if err := outer.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:o1", "start:i1", "stop:i1", "stop:o1"}
	if got := rec.got(); !equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestHealthyAggregatesComponents(t *testing.T) {
	sick := errors.New("rig fault")
	var failing error
	sup := NewSupervisor("test")
	sup.Add("ok", Funcs{})
	sup.Add("rig", Funcs{HealthyFunc: func() error { return failing }})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sup.Healthy(); err != nil {
		t.Fatalf("Healthy with healthy components: %v", err)
	}
	failing = sick
	err := sup.Healthy()
	if err == nil || !strings.Contains(err.Error(), "rig fault") {
		t.Fatalf("Healthy = %v, want rig fault", err)
	}
	// During drain liveness stays nil — readiness reports the drain.
	failing = nil
	if err := sup.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sup.Healthy(); err != nil {
		t.Fatalf("Healthy after clean Stop: %v", err)
	}
}

func TestProbeHandlers(t *testing.T) {
	sup := NewSupervisor("test")
	block := make(chan struct{})
	sup.Add("c", Funcs{
		StopFunc: func(context.Context) error {
			<-block
			return nil
		},
	})

	get := func(h http.Handler) int {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/", nil))
		return rw.Code
	}

	// Before start: alive, not ready.
	if code := get(sup.HealthzHandler()); code != http.StatusOK {
		t.Fatalf("healthz before start = %d", code)
	}
	if code := get(sup.ReadyzHandler()); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before start = %d", code)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := get(sup.ReadyzHandler()); code != http.StatusOK {
		t.Fatalf("readyz after start = %d", code)
	}

	// Readiness must flip 503 the moment drain begins — while the stop is
	// still in flight.
	done := make(chan error, 1)
	go func() { done <- sup.Stop(context.Background()) }()
	deadline := time.After(2 * time.Second)
	for get(sup.ReadyzHandler()) != http.StatusServiceUnavailable {
		select {
		case <-deadline:
			t.Fatal("readyz never flipped to 503 during drain")
		case <-time.After(time.Millisecond):
		}
	}
	if code := get(sup.HealthzHandler()); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// POST is rejected — probes are GET-only.
	rw := httptest.NewRecorder()
	sup.HealthzHandler().ServeHTTP(rw, httptest.NewRequest("POST", "/", nil))
	if rw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d", rw.Code)
	}
}

func TestLameDuckDelaysDrain(t *testing.T) {
	sup := NewSupervisor("test", WithLameDuck(50*time.Millisecond))
	var stoppedAt time.Time
	sup.Add("c", Funcs{StopFunc: func(context.Context) error {
		stoppedAt = time.Now()
		return nil
	}})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := sup.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := stoppedAt.Sub(start); d < 40*time.Millisecond {
		t.Fatalf("component stopped %s after Stop; lame-duck window not honoured", d)
	}
	if budget := sup.StopBudget(); budget < 50*time.Millisecond {
		t.Fatalf("StopBudget %s does not include the lame-duck window", budget)
	}
}

func TestStopFuncRunsOnce(t *testing.T) {
	n := 0
	c := StopFunc(func() { n++ })
	_ = c.Stop(context.Background())
	_ = c.Stop(context.Background())
	if n != 1 {
		t.Fatalf("stop ran %d times, want 1", n)
	}
	e := errors.New("once")
	calls := 0
	ce := StopErrFunc(func() error { calls++; return e })
	if err := ce.Stop(context.Background()); err != e {
		t.Fatalf("first StopErrFunc = %v", err)
	}
	if err := ce.Stop(context.Background()); err != e {
		t.Fatalf("second StopErrFunc should replay the error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("stop ran %d times, want 1", calls)
	}
}

func TestAddAfterStartPanics(t *testing.T) {
	sup := NewSupervisor("test")
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Start should panic")
		}
	}()
	sup.Add("late", Funcs{})
}

func TestDebugServerServesProbes(t *testing.T) {
	sup := NewSupervisor("test")
	ds := NewHTTPServer("127.0.0.1:0", DebugMux(sup, telemetry.NewRegistry(), nil))
	sup.Add("debug-server", ds)
	sup.Add("x", Funcs{})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(context.Background())
	resp, err := http.Get(fmt.Sprintf("http://%s/readyz", ds.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz over HTTP = %d", resp.StatusCode)
	}
	if err := ds.Healthy(); err != nil {
		t.Fatalf("debug server Healthy: %v", err)
	}
}

// TestDebugMuxServesPprofAndTrace reads each of the ops surface's five
// routes from one DebugMux, as Install mounts it: a wrapped span ring shows
// at /metrics beside the process gauges, and its spans at /trace.
func TestDebugMuxServesPprofAndTrace(t *testing.T) {
	sup := NewSupervisor("test")
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop(context.Background())
	reg, rec := telemetry.NewRegistry(), trace.NewRecorder(2)
	var flags DebugFlags
	flags.Install(sup, reg, rec) // -pprof off: only the span gauge
	tracer := trace.NewTracer("test", rec)
	for i := 0; i < 3; i++ {
		_, span := tracer.Start(context.Background(), "step", trace.KindServer)
		span.End()
	}
	srv := httptest.NewServer(DebugMux(sup, reg, rec))
	defer srv.Close()

	for _, row := range []struct {
		path  string
		check func(body []byte) error
	}{
		{"/debug/pprof/", func(body []byte) error {
			if !strings.Contains(string(body), "goroutine") {
				return fmt.Errorf("no profile index")
			}
			return nil
		}},
		{"/metrics", func(body []byte) error {
			var snap telemetry.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				return err
			}
			if snap.Gauges["process.goroutines"] <= 0 || snap.Gauges["trace.spans.dropped"] != 1 {
				return fmt.Errorf("process.goroutines %v, trace.spans.dropped %v, want > 0 and 1",
					snap.Gauges["process.goroutines"], snap.Gauges["trace.spans.dropped"])
			}
			return nil
		}},
		{"/trace", func(body []byte) error {
			var spans []trace.SpanData
			if err := json.Unmarshal(body, &spans); err != nil {
				return err
			}
			if len(spans) != 2 {
				return fmt.Errorf("%d spans, want the ring's 2", len(spans))
			}
			return nil
		}},
		{"/healthz", nil},
		{"/readyz", nil},
	} {
		resp, err := srv.Client().Get(srv.URL + row.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", row.path, resp.StatusCode)
			continue
		}
		if row.check != nil {
			if err := row.check(body); err != nil {
				t.Errorf("GET %s: %v", row.path, err)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
