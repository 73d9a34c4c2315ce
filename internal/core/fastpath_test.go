package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"neesgrid/internal/ogsi"
)

func TestProposeAndExecuteHappyPath(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	rec, err := s.ProposeAndExecute(context.Background(), "alice", proposal("f1", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted || rec.Results[0].Forces[0] != 2 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestProposeAndExecuteRejectionDoesNotExecute(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.01}}}
	var executions int
	p := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		executions++
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{0}}}, nil
	})
	s := NewServer(p, pol, ServerOptions{})
	rec, err := s.ProposeAndExecute(context.Background(), "alice", proposal("big", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRejected {
		t.Fatalf("state = %s", rec.State)
	}
	if executions != 0 {
		t.Fatal("rejected fast-path proposal executed")
	}
}

func TestProposeAndExecuteAtMostOnceUnderRetry(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	p := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{7}}}, nil
	})
	s := NewServer(p, nil, ServerOptions{})
	ctx := context.Background()
	first, err := s.ProposeAndExecute(ctx, "alice", proposal("r1", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	// Retry storm: same name, any number of times — one execution.
	for i := 0; i < 5; i++ {
		rec, err := s.ProposeAndExecute(ctx, "alice", proposal("r1", 0.01))
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != StateExecuted || rec.Results[0].Forces[0] != first.Results[0].Forces[0] {
			t.Fatalf("replay %d = %+v", i, rec)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("executed %d times, want 1", executions)
	}
}

func TestProposeAndExecuteFailureReplay(t *testing.T) {
	p := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		return nil, fmt.Errorf("hydraulics down")
	})
	s := NewServer(p, nil, ServerOptions{})
	ctx := context.Background()
	rec, err := s.ProposeAndExecute(ctx, "alice", proposal("f", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed {
		t.Fatalf("state = %s", rec.State)
	}
	// Replay returns the recorded failure, no re-execution.
	rec, err = s.ProposeAndExecute(ctx, "alice", proposal("f", 0.01))
	if err != nil || rec.State != StateFailed {
		t.Fatalf("replay = %+v, %v", rec, err)
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("failed = %d", s.Stats().Failed)
	}
}

func TestRunFastOverNetwork(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(DefaultRetry, nil)
	rec, err := cl.RunFast(context.Background(), proposal("fast-1", 0.03))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted || rec.Results[0].Forces[0] != 3 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestRunFastRejection(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.01}}}
	f := newFixture(t, springPlugin(100), pol)
	cl := f.client(DefaultRetry, nil)
	rec, err := cl.RunFast(context.Background(), proposal("fast-big", 0.5))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if rec == nil || rec.State != StateRejected {
		t.Fatalf("record = %+v", rec)
	}
}

func TestRunFastFailure(t *testing.T) {
	p := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		return nil, fmt.Errorf("fault")
	})
	f := newFixture(t, p, nil)
	cl := f.client(NoRetry, nil)
	_, err := cl.RunFast(context.Background(), proposal("fast-f", 0.01))
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestRunFastRetriesTransportFailures(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	p := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{1}}}, nil
	})
	f := newFixture(t, p, nil)
	ft := &flakyTransport{failures: 2}
	cl := f.client(DefaultRetry, &http.Client{Transport: ft})
	rec, err := cl.RunFast(context.Background(), proposal("fast-r", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state = %s", rec.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("executed %d times under retry, want 1", executions)
	}
}

// One fast-path call equals one wire round trip; the baseline takes two.
func TestFastPathHalvesRoundTrips(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	count := &countingTransport{}
	cl := f.client(NoRetry, &http.Client{Transport: count})
	ctx := context.Background()
	if _, err := cl.Run(ctx, proposal("base", 0.01)); err != nil {
		t.Fatal(err)
	}
	base := count.n
	if _, err := cl.RunFast(ctx, proposal("fast", 0.01)); err != nil {
		t.Fatal(err)
	}
	fast := count.n - base
	if base != 2 || fast != 1 {
		t.Fatalf("round trips: baseline %d (want 2), fast %d (want 1)", base, fast)
	}
}

type countingTransport struct {
	mu sync.Mutex
	n  int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return ogsi.DefaultTransport.RoundTrip(r)
}
