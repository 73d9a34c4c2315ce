package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"neesgrid/internal/faultnet"
	"neesgrid/internal/ogsi"
)

func TestExecuteAndProposeOneEnvelope(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ct := &countingTransport{}
	cl := f.client(NoRetry, &http.Client{Transport: ct})
	ctx := context.Background()

	if _, err := cl.Propose(ctx, proposal("s1", 0.03)); err != nil {
		t.Fatal(err)
	}
	before := ct.n
	execRec, propRec, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.n - before; got != 1 {
		t.Fatalf("batched step crossed the wire %d times, want 1", got)
	}
	if execRec.State != StateExecuted || execRec.Results[0].Forces[0] != 3 {
		t.Fatalf("exec record = %+v", execRec)
	}
	if propRec.State != StateAccepted || propRec.Name != "s2" {
		t.Fatalf("speculative record = %+v", propRec)
	}
	// The speculative transaction is live: executing it completes the step.
	rec, err := cl.Execute(ctx, "s2")
	if err != nil || rec.State != StateExecuted || rec.Results[0].Forces[0] != 4 {
		t.Fatalf("execute speculation = %+v, %v", rec, err)
	}
}

func TestExecuteAndProposeRetriesAsOneUnit(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	plugin := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{1}}}, nil
	})
	f := newFixture(t, plugin, nil)
	ctx := context.Background()
	// Seed the transaction to execute with a reliable client…
	if _, err := f.client(NoRetry, nil).Propose(ctx, proposal("s1", 0.01)); err != nil {
		t.Fatal(err)
	}
	// …then batch through a transport that drops the first envelope.
	ft := &flakyTransport{failures: 1}
	cl := f.client(DefaultRetry, &http.Client{Transport: ft})
	execRec, propRec, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if execRec.State != StateExecuted || propRec.State != StateAccepted {
		t.Fatalf("records = %+v, %+v", execRec, propRec)
	}
	st := cl.Stats()
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("stats = %+v, want a recovered retry", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("retried batch executed the action %d times, want 1", executions)
	}
}

func TestExecuteAndProposeSpeculativeRejection(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.1}}}
	f := newFixture(t, springPlugin(100), pol)
	cl := f.client(NoRetry, nil)
	ctx := context.Background()
	if _, err := cl.Propose(ctx, proposal("s1", 0.01)); err != nil {
		t.Fatal(err)
	}
	execRec, propRec, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.5))
	if err != nil {
		t.Fatalf("a rejected speculation is an outcome, not an envelope error: %v", err)
	}
	if execRec.State != StateExecuted {
		t.Fatalf("exec record = %+v", execRec)
	}
	if propRec.State != StateRejected {
		t.Fatalf("speculative record = %+v", propRec)
	}
}

func TestExecuteAndProposeExecuteFaultStillReturnsSpeculation(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(NoRetry, nil)
	ctx := context.Background()
	if _, err := cl.Propose(ctx, proposal("s1", 0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	execRec, propRec, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.02))
	if !ogsi.IsRemoteCode(err, ogsi.CodeConflict) {
		t.Fatalf("executing a cancelled transaction should conflict, got %v", err)
	}
	if execRec != nil {
		t.Fatalf("exec record = %+v", execRec)
	}
	// The speculative half was accepted; the caller needs its record to
	// cancel it.
	if propRec == nil || propRec.State != StateAccepted {
		t.Fatalf("speculative record = %+v", propRec)
	}
	if _, err := cl.Cancel(ctx, "s2"); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedEnvelopePaysInjectorOnce(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	in := faultnet.NewInjector(faultnet.LAN)
	og := f.ogsiClient()
	og.HTTP = &http.Client{Transport: faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(1))}
	cl := NewClient(og, NoRetry)
	ctx := context.Background()

	if _, err := cl.Propose(ctx, proposal("s1", 0.01)); err != nil {
		t.Fatal(err)
	}
	before := in.Calls()
	if _, _, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.02)); err != nil {
		t.Fatal(err)
	}
	// Two NTCP operations, one envelope: latency (and failure) injection is
	// charged per envelope, so the batch pays the WAN exactly once.
	if got := in.Calls() - before; got != 1 {
		t.Fatalf("batch charged the injector %d times, want 1", got)
	}
}

func TestExecuteAndProposeTransportExhaustion(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ft := &flakyTransport{failures: 100}
	cl := f.client(RetryPolicy{Attempts: 3, Backoff: 1}, &http.Client{Transport: ft})
	_, _, err := cl.ExecuteAndPropose(context.Background(), "s1", proposal("s2", 0.01))
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if ft.attempts != 3 {
		t.Fatalf("made %d attempts, want 3", ft.attempts)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// The pipelined rollback: the mispredicted speculation is cancelled and the
// step re-proposed in one envelope.
func TestCancelAndProposeOneEnvelope(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ct := &countingTransport{}
	cl := f.client(NoRetry, &http.Client{Transport: ct})
	ctx := context.Background()
	if _, err := cl.Propose(ctx, proposal("s1", 0.03)); err != nil {
		t.Fatal(err)
	}
	before := ct.n
	cancelRec, propRec, err := cl.CancelAndPropose(ctx, "s1", proposal("s1/r1", 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.n - before; got != 1 {
		t.Fatalf("rollback crossed the wire %d times, want 1", got)
	}
	if cancelRec.State != StateCancelled || propRec.State != StateAccepted || propRec.Name != "s1/r1" {
		t.Fatalf("records = %+v, %+v", cancelRec, propRec)
	}
	if st := f.server.Stats(); st.Cancelled != 1 || st.Accepted != 2 || st.DedupedReplay != 0 {
		t.Fatalf("server stats = %+v", st)
	}
	// A cancel that faults does not keep the propose from running.
	cancelRec, propRec, err = cl.CancelAndPropose(ctx, "nope", proposal("s2", 0.01))
	if cancelRec != nil || propRec == nil || propRec.State != StateAccepted || !ogsi.IsRemoteCode(err, ogsi.CodeNotFound) {
		t.Fatalf("records = %+v, %+v, err %v", cancelRec, propRec, err)
	}
}

// A batch result the strict decoder does not take — here a record with its
// keys out of the canonical order — decodes through encoding/json to the
// same record, and the client counts that fallback once.
func TestNonCanonicalBatchResultFallsBackOnce(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ctx := context.Background()
	cl := f.client(NoRetry, nil)
	if _, err := cl.Propose(ctx, proposal("s1", 0.03)); err != nil {
		t.Fatal(err)
	}
	execRec, propRec, err := cl.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.04))
	if err != nil {
		t.Fatal(err)
	}
	canonical := func(rec *Record) json.RawMessage {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var fields map[string]any // encoding/json writes a map's keys sorted
	if err := json.Unmarshal(canonical(execRec), &fields); err != nil {
		t.Fatal(err)
	}
	reordered, _ := json.Marshal(fields)
	if string(reordered) == string(canonical(execRec)) {
		t.Fatal("the hand-written record is the canonical one")
	}
	replies := ogsi.NewService("replay")
	replies.RegisterOp("execute", func(context.Context, ogsi.Caller, json.RawMessage) (any, error) {
		return json.RawMessage(reordered), nil
	})
	replies.RegisterOp("propose", func(context.Context, ogsi.Caller, json.RawMessage) (any, error) {
		return canonical(propRec), nil
	})
	f.cont.AddService(replies)

	replay := NewClient(f.ogsiClient(), NoRetry)
	replay.ServiceName = "replay"
	gotExec, gotProp, err := replay.ExecuteAndPropose(ctx, "s1", proposal("s2", 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotExec, execRec) || !reflect.DeepEqual(gotProp, propRec) {
		t.Fatalf("records = %+v, %+v\nwant %+v, %+v", gotExec, gotProp, execRec, propRec)
	}
	if n := replay.Telemetry().Snapshot().Counters[ogsi.MetricDecodeFallbacks]; n != 1 {
		t.Fatalf("%s = %d, want 1", ogsi.MetricDecodeFallbacks, n)
	}
}
