package coord

import (
	"context"
	"errors"
	"strings"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

// Regression: a transport failure during phase 1 used to abort the step
// WITHOUT cancelling the proposals the other sites had already accepted —
// the cancel sweep only ran on an explicit policy rejection. The orphaned
// transactions then pinned server state (and, after a resume, replayed as
// stale accepts). Any abort of the propose barrier must cancel the accepted
// siblings, in every configuration that has one.
func TestTransportAbortCancelsAcceptedSiblings(t *testing.T) {
	eachStepping(t, func(t *testing.T, sc stepping) {
		h := newHarness(t, []structural.Element{
			structural.NewLinearElastic(1000),
			structural.NewLinearElastic(1000),
		}, nil)
		cfg := sdofConfig(100, 2000, 30)
		sc.set(&cfg)
		// Site 0's first call fails: its step-0 propose, in the one barrier
		// every barrier configuration runs (pipelined steps skip it on a hit) —
		// or, without a barrier, its step-0 proposeAndExecute.
		h.sites[0].injector.FailNext(1)
		c, err := New(cfg, h.coordSites(core.NoRetry)...)
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := c.Run(context.Background())
		if err == nil {
			t.Fatal("run should abort on the unretried transport failure")
		}
		if errors.Is(err, core.ErrRejected) {
			t.Fatalf("err = %v: a transport abort is not a rejection", err)
		}
		if report.FailedStep != 0 {
			t.Fatalf("failed at step %d, want 0", report.FailedStep)
		}
		// Site 1 accepted its step-0 proposal; the abort must have cancelled
		// it. Without a barrier there was nothing left to cancel: it had
		// executed already.
		wantCancelled, wantExecuted := 1, 0
		if !sc.barrier {
			wantCancelled, wantExecuted = 0, 1
		}
		if got := h.sites[1].server.Stats(); got.Cancelled != wantCancelled || got.Executed != wantExecuted {
			t.Fatalf("sibling stats = %+v, want %d cancelled, %d executed", got, wantCancelled, wantExecuted)
		}
	})
}

// Sibling cancels must be delivered even when the step context that carried
// the abort is already cancelled — cancellation is cleanup, and cleanup on
// a dead context was exactly how transactions leaked.
func TestCancelAcceptedSurvivesCancelledContext(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, nil)
	sites := h.coordSites(core.NoRetry)
	c, err := New(sdofConfig(100, 1000, 10), sites...)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sites[0].Client.Propose(context.Background(), &core.Proposal{
		Name: "test/orphan/uiuc",
		Actions: []core.Action{{
			ControlPoint:  "drift",
			Displacements: []float64{0.001},
		}},
	})
	if err != nil || rec.State != core.StateAccepted {
		t.Fatalf("propose = %+v, %v", rec, err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	stopWorkers := c.startWorkers()
	c.cancelAccepted(dead, []*core.Record{rec})
	stopWorkers()

	if got := h.sites[0].server.Stats().Cancelled; got != 1 {
		t.Fatalf("cancelled = %d, want 1 despite the dead step context", got)
	}
}

// After an abort cancelled a step's proposals, a resumed coordinator
// re-proposing the same deterministic name gets the CANCELLED record
// replayed from the dedupe table. The propose walk must step to a revision
// suffix rather than spin on (or die of) the terminal replay. FastPath has
// no propose of its own to walk with: its proposeAndExecute replays the
// cancelled record, and the step must fail saying so (it used to pass the
// state check by and report "malformed results").
func TestProposeWalksPastCancelledReplays(t *testing.T) {
	eachStepping(t, func(t *testing.T, sc stepping) {
		h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, nil)
		sites := h.coordSites(core.DefaultRetry)
		ctx := context.Background()

		// Leave a cancelled husk of step 1's transaction behind, as a dead
		// incarnation's abort sweep would.
		cl := sites[0].Client
		if _, err := cl.Propose(ctx, &core.Proposal{
			Name: "test/step-1/uiuc",
			Actions: []core.Action{{
				ControlPoint:  "drift",
				Displacements: []float64{0.0001},
			}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Cancel(ctx, "test/step-1/uiuc"); err != nil {
			t.Fatal(err)
		}

		cfg := sdofConfig(100, 1000, 20)
		sc.set(&cfg)
		c, err := New(cfg, sites...)
		if err != nil {
			t.Fatal(err)
		}
		_, report, err := c.Run(ctx)
		if cfg.FastPath {
			if !errors.Is(err, core.ErrFailed) || !strings.Contains(err.Error(), "test/step-1/uiuc: cancelled") || report.FailedStep != 1 {
				t.Fatalf("run = %+v, %v; want step 1 failed by its cancelled transaction", report, err)
			}
			return
		}
		if err != nil || !report.Completed {
			t.Fatalf("run = %+v, %v", report, err)
		}
		if got := report.Telemetry.Counters["coord.proposals.revised"]; got == 0 {
			t.Fatal("no revision recorded: step 1 should have walked past the cancelled replay")
		}
	})
}

// A rollback whose [cancel, propose] envelope fails must still withdraw the
// mispredicted speculation: the abort sweep cancels it with the siblings'
// fresh proposals, so no accepted transaction outlives the run.
func TestFailedRollbackCancelsTheSpeculation(t *testing.T) {
	h := newHarness(t, []structural.Element{
		structural.NewLinearElastic(1000),
		structural.NewLinearElastic(1000),
	}, nil)
	cfg := sdofConfig(100, 2000, 20)
	cfg.Pipeline, cfg.PipelineTolerance = true, -1 // every step rolls back
	cfg.OnStep = func(_ context.Context, st structural.State) {
		if st.Step == 5 {
			h.sites[0].injector.FailNext(1) // step 6's rollback envelope
		}
	}
	c, err := New(cfg, h.coordSites(core.NoRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := c.Run(context.Background())
	if err == nil || report.FailedStep != 6 {
		t.Fatalf("run = %+v, %v; want step 6 failed", report, err)
	}
	for _, ts := range h.sites {
		if st := ts.server.Stats(); st.Accepted != st.Executed+st.Cancelled {
			t.Errorf("site %s: %+v leaves %d accepted transactions", ts.name, st, st.Accepted-st.Executed-st.Cancelled)
		}
	}
}
