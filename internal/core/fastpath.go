package core

import (
	"context"
	"encoding/json"

	"neesgrid/internal/ogsi"
)

// The §5 performance work: "MOST and most follow-on experiments have lax
// performance requirements; … we are working with engineers … to support
// distributed experiments with near-real-time requirements. … we are
// working on improving NTCP performance."
//
// The dominant per-step cost of the baseline protocol is its two WAN round
// trips (propose, then execute). ProposeAndExecute collapses them into one
// while preserving every NTCP guarantee: the server still runs the full
// proposal pipeline (policy screen, plugin validation) and only then
// executes, the transaction is still recorded and deduplicated by name
// (at-most-once under retry), and a policy rejection still happens before
// any action. What is lost is only the cross-site barrier: a coordinator
// using the fast path cannot ensure every site accepted before any site
// moves, so it is appropriate exactly when — as in a well-rehearsed
// near-real-time test — proposals are known to satisfy site policy.
// BenchmarkE8NtcpFastPath quantifies the saving.

// ProposeAndExecute validates, accepts, and executes a proposal in one
// call. Replays (by transaction name) return the recorded outcome without
// re-executing. A rejected proposal is returned with StateRejected and is
// not executed.
func (s *Server) ProposeAndExecute(ctx context.Context, client string, p *Proposal) (*Record, error) {
	rec, err := s.Propose(ctx, client, p)
	if err != nil {
		return nil, err
	}
	switch rec.State {
	case StateRejected, StateExecuted, StateFailed, StateCancelled:
		// Rejected: surface without executing. Terminal states: this was a
		// replay; return the recorded outcome.
		return rec, nil
	default:
		return s.Execute(ctx, client, p.Name)
	}
}

// registerFastPathOp wires the combined operation into the service. Called
// from registerOps.
func (s *Server) registerFastPathOp() {
	s.svc.RegisterOp("proposeAndExecute", func(ctx context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p Proposal
		if err := s.decodeParams(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad proposal: %v", err)
		}
		return s.ProposeAndExecute(ctx, caller.Identity, &p)
	})
}

// RunFast is the client side of the fast path: one round trip per step.
// Semantically it matches Run except that rejection surfaces after the
// server-side decision rather than before sibling execution elsewhere.
func (c *Client) RunFast(ctx context.Context, p *Proposal) (*Record, error) {
	rec, err := c.call(ctx, "proposeAndExecute", p)
	if err != nil {
		return nil, err
	}
	return outcome(rec)
}

// RejectionError is what Run and RunFast return with a rejected record;
// errors.Is(err, ErrRejected) holds.
type RejectionError struct{ Record *Record }

func (e *RejectionError) Error() string { return "ntcp: proposal rejected: " + e.Record.Error }

// Is matches ErrRejected.
func (e *RejectionError) Is(target error) bool { return target == ErrRejected }

// ExecutionError is what Run and RunFast return with a failed record;
// errors.Is(err, ErrFailed) holds.
type ExecutionError struct{ Record *Record }

func (e *ExecutionError) Error() string { return "ntcp: execution failed: " + e.Record.Error }

// Is matches ErrFailed.
func (e *ExecutionError) Is(target error) bool { return target == ErrFailed }
