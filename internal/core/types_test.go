package core

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"
)

func TestTransactionStateMachine(t *testing.T) {
	// E4: the legal transitions of Fig. 1, exhaustively.
	legal := []struct{ from, to TxState }{
		{StateProposed, StateAccepted},
		{StateProposed, StateRejected},
		{StateAccepted, StateExecuting},
		{StateAccepted, StateCancelled},
		{StateExecuting, StateExecuted},
		{StateExecuting, StateFailed},
	}
	for _, tr := range legal {
		if !CanTransition(tr.from, tr.to) {
			t.Errorf("transition %s -> %s should be legal", tr.from, tr.to)
		}
	}
	illegal := []struct{ from, to TxState }{
		{StateProposed, StateExecuting}, // must be accepted first
		{StateProposed, StateExecuted},
		{StateRejected, StateAccepted}, // terminal states admit nothing
		{StateRejected, StateExecuting},
		{StateExecuted, StateExecuting},
		{StateCancelled, StateExecuting},
		{StateFailed, StateExecuting},
		{StateExecuting, StateCancelled}, // physical actions cannot be undone
		{StateAccepted, StateExecuted},   // cannot skip executing
		{StateExecuted, StateProposed},
	}
	for _, tr := range illegal {
		if CanTransition(tr.from, tr.to) {
			t.Errorf("transition %s -> %s should be illegal", tr.from, tr.to)
		}
	}
}

func TestTerminalStates(t *testing.T) {
	for _, s := range []TxState{StateRejected, StateExecuted, StateCancelled, StateFailed} {
		if !s.Terminal() {
			t.Errorf("%s should be terminal", s)
		}
	}
	for _, s := range []TxState{StateProposed, StateAccepted, StateExecuting} {
		if s.Terminal() {
			t.Errorf("%s should not be terminal", s)
		}
	}
}

// Property: no transition ever leaves a terminal state.
func TestNoTransitionFromTerminalProperty(t *testing.T) {
	states := []TxState{StateProposed, StateAccepted, StateRejected,
		StateExecuting, StateExecuted, StateCancelled, StateFailed}
	f := func(i, j uint8) bool {
		from := states[int(i)%len(states)]
		to := states[int(j)%len(states)]
		if from.Terminal() && CanTransition(from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProposalValidate(t *testing.T) {
	ok := &Proposal{Name: "t1", Actions: []Action{{ControlPoint: "cp", Displacements: []float64{0.01}}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Proposal{
		{Actions: []Action{{ControlPoint: "cp", Displacements: []float64{1}}}}, // no name
		{Name: "t"}, // no actions
		{Name: "t", Actions: []Action{{Displacements: []float64{1}}}},                                      // no control point
		{Name: "t", Actions: []Action{{ControlPoint: "cp"}}},                                               // no displacements
		{Name: "t", Actions: []Action{{ControlPoint: "cp", Displacements: []float64{1}, HoldSeconds: -1}}}, // negative hold
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

// TestTimestampsLikeAMap: the fixed array reads, counts and encodes as the
// map of state to time it replaced, and refuses a state outside Fig. 1 both
// when set and when decoded.
func TestTimestampsLikeAMap(t *testing.T) {
	var ts Timestamps
	t0 := time.Date(2026, 8, 5, 12, 30, 45, 0, time.UTC)
	m := map[TxState]time.Time{}
	for i, s := range []TxState{StateProposed, StateAccepted, StateExecuting, StateExecuted} {
		m[s] = t0.Add(time.Duration(i) * time.Millisecond)
		if !ts.Set(s, m[s]) {
			t.Fatalf("Set(%s) refused", s)
		}
	}
	ts.Set(StateAccepted, m[StateAccepted]) // again: still one entry
	if ts.Set("paused", t0) || ts.Len() != len(m) {
		t.Fatalf("Len = %d after an unknown state, want %d", ts.Len(), len(m))
	}
	for s, want := range m {
		if got, ok := ts.Get(s); !ok || !got.Equal(want) {
			t.Fatalf("Get(%s) = %v %v", s, got, ok)
		}
	}
	if _, ok := ts.Get(StateFailed); ok {
		t.Fatal("Get of a state never entered")
	}
	got, err := json.Marshal(ts)
	want, _ := json.Marshal(m)
	if err != nil || string(got) != string(want) {
		t.Fatalf("JSON %s (%v), the map's %s", got, err, want)
	}
	var back Timestamps
	if err := json.Unmarshal(got, &back); err != nil || back != ts {
		t.Fatalf("round trip: %+v %v", back, err)
	}
	if err := json.Unmarshal([]byte(`{"paused":"2026-08-05T12:30:45Z"}`), &back); err == nil {
		t.Fatal("decoded a timestamp for a state outside Fig. 1")
	}
}
