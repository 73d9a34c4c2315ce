package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/ogsi"
)

// springPlugin is a SubstructurePlugin over a linear spring.
func springPlugin(k float64) *SubstructurePlugin {
	return &SubstructurePlugin{
		Point: "drift",
		NDOF:  1,
		Apply: func(d []float64) ([]float64, error) {
			return []float64{k * d[0]}, nil
		},
	}
}

func proposal(name string, d float64) *Proposal {
	return &Proposal{Name: name, Actions: []Action{{ControlPoint: "drift", Displacements: []float64{d}}}}
}

func TestProposeExecuteHappyPath(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	ctx := context.Background()
	rec, err := s.Propose(ctx, "alice", proposal("t1", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateAccepted {
		t.Fatalf("state = %s, want accepted", rec.State)
	}
	rec, err = s.Execute(ctx, "alice", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state = %s, want executed", rec.State)
	}
	if len(rec.Results) != 1 || rec.Results[0].Forces[0] != 2 {
		t.Fatalf("results = %+v, want force 2", rec.Results)
	}
	// Every state change must be timestamped.
	for _, st := range []TxState{StateProposed, StateAccepted, StateExecuting, StateExecuted} {
		if _, ok := rec.Timestamps.Get(st); !ok {
			t.Errorf("missing timestamp for %s", st)
		}
	}
}

func TestProposeIdempotentByName(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	ctx := context.Background()
	first, _ := s.Propose(ctx, "alice", proposal("t1", 0.02))
	again, err := s.Propose(ctx, "alice", proposal("t1", 0.9)) // different body: still the original answer
	if err != nil {
		t.Fatal(err)
	}
	if again.State != first.State || again.Actions[0].Displacements[0] != 0.02 {
		t.Fatalf("replayed proposal mutated the transaction: %+v", again)
	}
	if s.Stats().DedupedReplay == 0 {
		t.Fatal("dedupe counter not incremented")
	}
	if s.Stats().Proposed != 1 {
		t.Fatalf("proposed = %d, want 1", s.Stats().Proposed)
	}
}

func TestExecuteAtMostOnce(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	p := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{1}}}, nil
	})
	s := NewServer(p, nil, ServerOptions{})
	ctx := context.Background()
	if _, err := s.Propose(ctx, "alice", proposal("t1", 0.01)); err != nil {
		t.Fatal(err)
	}
	// Fire 8 concurrent Execute calls — the retry storm a flaky network
	// produces. Exactly one plugin execution may happen.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := s.Execute(ctx, "alice", "t1")
			if err != nil {
				t.Error(err)
				return
			}
			if rec.State != StateExecuted {
				t.Errorf("state = %s", rec.State)
			}
		}()
	}
	wg.Wait()
	if executions != 1 {
		t.Fatalf("plugin executed %d times, want exactly 1", executions)
	}
}

func TestExecuteAfterCompletionReplaysResult(t *testing.T) {
	s := NewServer(springPlugin(50), nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t1", 0.1))
	first, err := s.Execute(ctx, "alice", "t1")
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Execute(ctx, "alice", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if replay.Results[0].Forces[0] != first.Results[0].Forces[0] {
		t.Fatal("replayed execute returned different results")
	}
	if s.Stats().Executed != 1 {
		t.Fatalf("executed counter = %d, want 1", s.Stats().Executed)
	}
}

func TestPolicyRejection(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{
		"drift": {MaxDisplacement: 0.05},
	}}
	s := NewServer(springPlugin(100), pol, ServerOptions{})
	ctx := context.Background()
	rec, err := s.Propose(ctx, "alice", proposal("big", 0.10))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRejected {
		t.Fatalf("state = %s, want rejected", rec.State)
	}
	// Execute on a rejected transaction is a conflict...
	if _, err := s.Execute(ctx, "alice", "big"); !ogsi.IsRemoteCode(wrapOp(err), ogsi.CodeConflict) {
		t.Fatalf("execute on rejected: %v", err)
	}
	// ...and nothing ever reached the plugin.
	if s.Stats().Executed != 0 {
		t.Fatal("rejected proposal executed")
	}
}

// wrapOp converts an *ogsi.OpError into a RemoteError-shaped check.
func wrapOp(err error) error {
	var oe *ogsi.OpError
	if errors.As(err, &oe) {
		return &ogsi.RemoteError{Code: oe.Code, Message: oe.Message}
	}
	return err
}

func TestPolicyForceEstimate(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{
		"drift": {MaxForceEstimate: 100, StiffnessEst: 1000}, // d > 0.1 rejected
	}}
	s := NewServer(springPlugin(1000), pol, ServerOptions{})
	rec, _ := s.Propose(context.Background(), "alice", proposal("f", 0.2))
	if rec.State != StateRejected {
		t.Fatalf("state = %s, want rejected by force estimate", rec.State)
	}
	rec, _ = s.Propose(context.Background(), "alice", proposal("ok", 0.05))
	if rec.State != StateAccepted {
		t.Fatalf("state = %s, want accepted", rec.State)
	}
}

func TestPolicyMaxStepUsesLastExecutedPosition(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{
		"drift": {MaxStep: 0.05},
	}}
	s := NewServer(springPlugin(10), pol, ServerOptions{})
	ctx := context.Background()
	// First move: no prior position, any target within other limits is fine.
	if rec, _ := s.Propose(ctx, "alice", proposal("s1", 0.04)); rec.State != StateAccepted {
		t.Fatal("first step rejected")
	}
	if _, err := s.Execute(ctx, "alice", "s1"); err != nil {
		t.Fatal(err)
	}
	// 0.04 -> 0.2 is a 0.16 step: reject.
	if rec, _ := s.Propose(ctx, "alice", proposal("s2", 0.2)); rec.State != StateRejected {
		t.Fatal("oversized step accepted")
	}
	// 0.04 -> 0.08 is fine.
	if rec, _ := s.Propose(ctx, "alice", proposal("s3", 0.08)); rec.State != StateAccepted {
		t.Fatal("legal step rejected")
	}
}

func TestPolicyAllowedClients(t *testing.T) {
	pol := &SitePolicy{AllowedClients: map[string]bool{"alice": true}}
	s := NewServer(springPlugin(10), pol, ServerOptions{})
	if rec, _ := s.Propose(context.Background(), "mallory", proposal("m", 0.01)); rec.State != StateRejected {
		t.Fatal("disallowed client accepted")
	}
	if rec, _ := s.Propose(context.Background(), "alice", proposal("a", 0.01)); rec.State != StateAccepted {
		t.Fatal("allowed client rejected")
	}
}

func TestPluginValidationVeto(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	rec, err := s.Propose(context.Background(), "alice", &Proposal{
		Name:    "bad-point",
		Actions: []Action{{ControlPoint: "unknown", Displacements: []float64{0.01}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRejected {
		t.Fatalf("state = %s, want rejected by plugin", rec.State)
	}
}

func TestCancelAcceptedTransaction(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t", 0.01))
	rec, err := s.Cancel(ctx, "alice", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCancelled {
		t.Fatalf("state = %s", rec.State)
	}
	// Cancel again: idempotent.
	if _, err := s.Cancel(ctx, "alice", "t"); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
	// Execute after cancel: conflict.
	if _, err := s.Execute(ctx, "alice", "t"); err == nil {
		t.Fatal("execute after cancel should fail")
	}
}

func TestCancelExecutedConflicts(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t", 0.01))
	_, _ = s.Execute(ctx, "alice", "t")
	if _, err := s.Cancel(ctx, "alice", "t"); err == nil {
		t.Fatal("cancelling an executed transaction must conflict (physical actions cannot be undone)")
	}
}

func TestOwnershipEnforced(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t", 0.01))
	if _, err := s.Execute(ctx, "mallory", "t"); err == nil {
		t.Fatal("foreign execute should be denied")
	}
	if _, err := s.Cancel(ctx, "mallory", "t"); err == nil {
		t.Fatal("foreign cancel should be denied")
	}
}

func TestExecuteUnknownTransaction(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	if _, err := s.Execute(context.Background(), "alice", "nope"); err == nil {
		t.Fatal("unknown transaction should fail")
	}
}

func TestExecutionFailureRecorded(t *testing.T) {
	p := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		return nil, fmt.Errorf("hydraulic pressure lost")
	})
	s := NewServer(p, nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t", 0.01))
	rec, err := s.Execute(ctx, "alice", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed || rec.Error == "" {
		t.Fatalf("record = %+v, want failed with error", rec)
	}
	// Retry replays the failure rather than re-running the action.
	rec2, _ := s.Execute(ctx, "alice", "t")
	if rec2.State != StateFailed {
		t.Fatal("failure replay wrong")
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("failed counter = %d", s.Stats().Failed)
	}
}

func TestExecutionTimeout(t *testing.T) {
	p := PluginFunc(func(ctx context.Context, _ []Action) ([]Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return []Result{}, nil
		}
	})
	s := NewServer(p, nil, ServerOptions{DefaultExecuteTimeout: 20 * time.Millisecond})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("slow", 0.01))
	rec, err := s.Execute(ctx, "alice", "slow")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateFailed {
		t.Fatalf("state = %s, want failed on timeout", rec.State)
	}
}

func TestExecuteDetachesFromRequestContext(t *testing.T) {
	// A client whose connection dies mid-execution must still get the
	// completed result on retry: execution is bound to the server, not the
	// request.
	release := make(chan struct{})
	p := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		<-release
		return []Result{{ControlPoint: "drift", Displacements: []float64{0.01}, Forces: []float64{1}}}, nil
	})
	s := NewServer(p, nil, ServerOptions{})
	bg := context.Background()
	_, _ = s.Propose(bg, "alice", proposal("t", 0.01))

	short, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	_, err := s.Execute(short, "alice", "t")
	if err == nil {
		t.Fatal("expected unavailable while executing")
	}
	close(release)
	// Retry with a healthy context: the single execution's result arrives.
	rec, err := s.Execute(bg, "alice", "t")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state = %s", rec.State)
	}
	if s.Stats().Executed != 1 {
		t.Fatalf("executed = %d, want 1", s.Stats().Executed)
	}
}

func TestTransactionSDEsPublished(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	_, _ = s.Propose(ctx, "alice", proposal("t9", 0.01))
	var rec Record
	if err := s.Service().SDEs.GetInto("tx:t9", &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateAccepted {
		t.Fatalf("SDE state = %s", rec.State)
	}
	var last string
	if err := s.Service().SDEs.GetInto("last-transaction", &last); err != nil {
		t.Fatal(err)
	}
	if last != "t9" {
		t.Fatalf("last-transaction = %q", last)
	}
	_, _ = s.Execute(ctx, "alice", "t9")
	_ = s.Service().SDEs.GetInto("tx:t9", &rec)
	if rec.State != StateExecuted {
		t.Fatalf("SDE not updated after execute: %s", rec.State)
	}
	var st Stats
	if err := s.Service().SDEs.GetInto("stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Executed != 1 {
		t.Fatalf("stats SDE = %+v", st)
	}
}

func TestSoftStateExpiryReapsTransactions(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	_, err := s.Propose(ctx, "alice", &Proposal{
		Name:       "ephemeral",
		Actions:    []Action{{ControlPoint: "drift", Displacements: []float64{0.01}}},
		TTLSeconds: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	s.Service().Lifetimes.Sweep()
	if _, err := s.Get("ephemeral"); err == nil {
		t.Fatal("expired transaction still present")
	}
	if _, ok := s.Service().SDEs.Get("tx:ephemeral"); ok {
		t.Fatal("expired transaction SDE still present")
	}
}

func TestGet(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	_, _ = s.Propose(context.Background(), "alice", proposal("t", 0.01))
	rec, err := s.Get("t")
	if err != nil || rec.Name != "t" {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("Get missing should fail")
	}
}

func TestSubstructurePluginValidate(t *testing.T) {
	p := springPlugin(10)
	ctx := context.Background()
	if err := p.Validate(ctx, []Action{{ControlPoint: "drift", Displacements: []float64{1, 2}}}); err == nil {
		t.Fatal("DOF mismatch should fail validation")
	}
	if err := p.Validate(ctx, []Action{{ControlPoint: "wrong", Displacements: []float64{1}}}); err == nil {
		t.Fatal("unknown control point should fail validation")
	}
}
