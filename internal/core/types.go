// Package core implements NTCP, the NEESgrid Teleoperation Control Protocol
// (paper §2.1, Figs. 1, 2, 9): a transaction-based Grid-service protocol for
// driving physical control systems and numerical simulations through one
// uniform interface.
//
// An NTCP interaction is a transaction: the client sends a proposal (a set
// of requested actions); the server validates it against site policy and the
// local control plugin; if accepted, the client issues execute to make the
// proposed actions happen; results flow back for the client to compute the
// next step. Transactions are idempotent by name, giving the protocol
// at-most-once semantics: a client that times out can re-send a request
// with no danger of the same action being applied twice — the property the
// MOST experiment's fault tolerance rests on.
package core

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"time"
)

// TxState enumerates the transaction lifecycle states of Fig. 1.
type TxState string

const (
	// StateProposed: the proposal has been received and recorded but not
	// yet accepted or rejected (transient, visible only mid-validation).
	StateProposed TxState = "proposed"
	// StateAccepted: the proposal passed policy and plugin validation; the
	// client may execute or cancel.
	StateAccepted TxState = "accepted"
	// StateRejected: the proposal violates site policy or was vetoed by
	// the control plugin. Terminal.
	StateRejected TxState = "rejected"
	// StateExecuting: the plugin is applying the proposed actions.
	StateExecuting TxState = "executing"
	// StateExecuted: the actions completed; results are available. Terminal.
	StateExecuted TxState = "executed"
	// StateCancelled: the client cancelled before execution. Terminal.
	StateCancelled TxState = "cancelled"
	// StateFailed: execution started but failed (plugin error or timeout).
	// Terminal.
	StateFailed TxState = "failed"
)

// Terminal reports whether a state admits no further transitions.
func (s TxState) Terminal() bool {
	switch s {
	case StateRejected, StateExecuted, StateCancelled, StateFailed:
		return true
	}
	return false
}

// legalTransitions is the Fig. 1 state machine.
var legalTransitions = map[TxState][]TxState{
	StateProposed:  {StateAccepted, StateRejected},
	StateAccepted:  {StateExecuting, StateCancelled},
	StateExecuting: {StateExecuted, StateFailed},
}

// CanTransition reports whether from → to is a legal Fig. 1 transition.
func CanTransition(from, to TxState) bool {
	for _, t := range legalTransitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Action requests that a control point be driven to target displacements
// and (after any hold time) its reaction measured. This is the generic
// "requested action" of the paper; the plugin maps it onto the local
// control system or simulation.
type Action struct {
	// ControlPoint names the actuator/DOF group the action addresses
	// (e.g. "story-drift").
	ControlPoint string `json:"control_point"`
	// Displacements are the target displacements in meters, one per DOF
	// of the control point.
	Displacements []float64 `json:"displacements"`
	// HoldSeconds is how long to hold the target before measuring (rig
	// settle time). Zero means measure as soon as the target is reached.
	HoldSeconds float64 `json:"hold_seconds,omitempty"`
}

// Result reports the measured state of a control point after execution.
type Result struct {
	ControlPoint string `json:"control_point"`
	// Displacements are the achieved displacements (meters) — for a rig,
	// where the actuator actually settled; for a simulation, the imposed
	// values exactly.
	Displacements []float64 `json:"displacements"`
	// Forces are the measured restoring forces (newtons).
	Forces []float64 `json:"forces"`
}

// Proposal is the client's request to create a transaction.
type Proposal struct {
	// Name is the client-chosen transaction name; retries reuse the name,
	// which is what gives NTCP its at-most-once semantics.
	Name    string   `json:"name"`
	Actions []Action `json:"actions"`
	// ExecuteTimeoutSeconds bounds execution wall time; 0 means the
	// server default.
	ExecuteTimeoutSeconds float64 `json:"execute_timeout_seconds,omitempty"`
	// TTLSeconds is the requested soft-state lifetime of the transaction
	// record; 0 means the server default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// Record is the full transaction state published as an OGSI service data
// element: name, state, the proposal that created it, results when
// available, and a timestamp for every state change in its lifetime
// (paper §2.1). The server's table holds the one copy of each; what it
// hands out is a snapshot whose Actions and Results share the table's
// slices, which nobody changes once set, and must not be changed by the
// receiver either.
type Record struct {
	Name       string     `json:"name"`
	State      TxState    `json:"state"`
	Actions    []Action   `json:"actions"`
	Timeout    float64    `json:"execute_timeout_seconds"`
	Results    []Result   `json:"results,omitempty"`
	Error      string     `json:"error,omitempty"`
	Client     string     `json:"client"`
	Timestamps Timestamps `json:"timestamps"`
}

// states lists the seven states of Fig. 1 in byte order of their names,
// which is the order encoding/json writes a map keyed by them in.
var states = [...]TxState{StateAccepted, StateCancelled, StateExecuted,
	StateExecuting, StateFailed, StateProposed, StateRejected}

// stateIndex is the position of s in states.
func stateIndex(s TxState) (int, bool) {
	for i, st := range states {
		if st == s {
			return i, true
		}
	}
	return 0, false
}

// Timestamps holds when a transaction entered each state it passed
// through: one slot per state of Fig. 1, so a record carries no map. It
// encodes as encoding/json encodes a map[TxState]time.Time — the states
// present, in byte order — and decodes only states of Fig. 1.
type Timestamps struct {
	set uint8 // bit i: states[i] has a time
	at  [len(states)]time.Time
}

// Set records that the transaction entered s at t. It reports false, and
// records nothing, for a state outside Fig. 1.
func (ts *Timestamps) Set(s TxState, t time.Time) bool {
	i, ok := stateIndex(s)
	if ok {
		ts.set |= 1 << i
		ts.at[i] = t
	}
	return ok
}

// Get returns when the transaction entered s, if it did.
func (ts *Timestamps) Get(s TxState) (time.Time, bool) {
	i, ok := stateIndex(s)
	if !ok || ts.set&(1<<i) == 0 {
		return time.Time{}, false
	}
	return ts.at[i], true
}

// Len is the number of states with a time.
func (ts *Timestamps) Len() int { return bits.OnesCount8(ts.set) }

// MarshalJSON implements json.Marshaler. The appenders write the same bytes
// in one pass; this is the form they fall back to.
func (ts Timestamps) MarshalJSON() ([]byte, error) {
	m := make(map[TxState]time.Time, ts.Len())
	for i, s := range states {
		if ts.set&(1<<i) != 0 {
			m[s] = ts.at[i]
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON implements json.Unmarshaler: an object of state → time, or
// null for none.
func (ts *Timestamps) UnmarshalJSON(data []byte) error {
	var m map[TxState]time.Time
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	var out Timestamps
	for s, t := range m {
		if !out.Set(s, t) {
			return fmt.Errorf("ntcp: timestamp for unknown state %q", s)
		}
	}
	*ts = out
	return nil
}

// Validate checks structural validity of a proposal (not policy).
func (p *Proposal) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("ntcp: proposal needs a transaction name")
	}
	if len(p.Actions) == 0 {
		return fmt.Errorf("ntcp: proposal %q has no actions", p.Name)
	}
	for i, a := range p.Actions {
		if a.ControlPoint == "" {
			return fmt.Errorf("ntcp: proposal %q action %d has no control point", p.Name, i)
		}
		if len(a.Displacements) == 0 {
			return fmt.Errorf("ntcp: proposal %q action %d has no displacements", p.Name, i)
		}
		if a.HoldSeconds < 0 {
			return fmt.Errorf("ntcp: proposal %q action %d has negative hold", p.Name, i)
		}
	}
	return nil
}
