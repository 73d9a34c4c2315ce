package coord

import (
	"context"
	"math"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

func pipelineSprings() []structural.Element {
	return []structural.Element{
		structural.NewLinearElastic(900),
		structural.NewLinearElastic(1100),
	}
}

func runPipelineConfig(t *testing.T, cfg Config) (*structural.History, *Report) {
	t.Helper()
	h := newHarness(t, pipelineSprings(), nil)
	c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err != nil || !report.Completed {
		t.Fatalf("run = %+v, %v", report, err)
	}
	return hist, report
}

func TestPipelinedMatchesBaselineWithinTolerance(t *testing.T) {
	// The pipelined protocol executes the PREDICTED displacement whenever
	// the prediction holds, so the trajectory may drift from the baseline —
	// but never beyond what the speculation tolerance allows per step.
	const steps = 100
	base, _ := runPipelineConfig(t, sdofConfig(100, 2000, steps))
	cfg := sdofConfig(100, 2000, steps)
	cfg.Pipeline = true
	hist, report := runPipelineConfig(t, cfg)

	peak := base.PeakDisplacement(0)
	if peak <= 0 {
		t.Fatal("flat baseline")
	}
	for i := range base.States {
		diff := math.Abs(hist.States[i].D[0] - base.States[i].D[0])
		if diff > 0.02*peak {
			t.Fatalf("step %d: pipelined %g vs baseline %g (diff %g, peak %g)",
				i, hist.States[i].D[0], base.States[i].D[0], diff, peak)
		}
	}
	// A smooth sine at dt=0.01 predicts well: the run must be dominated by
	// single-envelope hit steps, not rollbacks.
	hits := report.Telemetry.Counters["coord.pipeline.hits"]
	miss := report.Telemetry.Counters["coord.pipeline.mispredicts"]
	if hits < steps/2 {
		t.Fatalf("pipeline hits = %d of %d steps (mispredicts %d)", hits, steps, miss)
	}
}

func TestPipelinedForcedRollbackIsBitExact(t *testing.T) {
	// A negative tolerance voids every prediction, so each step rolls back
	// and re-proposes at the ACTUAL displacement — the trajectory must then
	// be bit-identical to the classic protocol. This is the exactness knob
	// (and it exercises the rollback + revision path on every step).
	const steps = 60
	base, _ := runPipelineConfig(t, sdofConfig(100, 2000, steps))
	cfg := sdofConfig(100, 2000, steps)
	cfg.Pipeline = true
	cfg.PipelineTolerance = -1
	hist, report := runPipelineConfig(t, cfg)

	for i := range base.States {
		if hist.States[i].D[0] != base.States[i].D[0] || hist.States[i].F[0] != base.States[i].F[0] {
			t.Fatalf("step %d: forced-rollback pipelined run diverged from baseline", i)
		}
	}
	if report.Telemetry.Counters["coord.pipeline.hits"] != 0 {
		t.Fatal("negative tolerance must never record a hit")
	}
	if report.Telemetry.Counters["coord.pipeline.mispredicts"] == 0 {
		t.Fatal("no rollbacks recorded")
	}
}

func TestPipelineFastPathMutuallyExclusive(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, nil)
	cfg := sdofConfig(100, 1000, 10)
	cfg.Pipeline = true
	cfg.FastPath = true
	if _, err := New(cfg, h.coordSites(core.NoRetry)...); err == nil {
		t.Fatal("Pipeline+FastPath must be rejected")
	}
}

// Regression: a site whose execute(N) faults may still have accepted the
// propose(N+1) that travelled in the same envelope. The commit used to file
// that site's speculative outcome under the envelope's error, and the abort
// sweep skips outcomes with an error — so the speculative transaction was
// never cancelled and pinned the site. Here uiuc's step-11 transaction is
// cancelled out of band, so its execute(11) conflicts while both sites
// accept propose(12); the dying step must cancel step 12 at BOTH sites.
func TestPipelinedExecuteFaultCancelsItsSpeculation(t *testing.T) {
	h := newHarness(t, pipelineSprings(), nil)
	sites := h.coordSites(core.NoRetry)
	ctx := context.Background()
	cfg := sdofConfig(100, 2000, 30)
	cfg.Pipeline = true
	cfg.OnStep = func(_ context.Context, st structural.State) {
		if st.Step == 10 {
			// The speculation for step 11 is held (accepted) by now.
			if rec, err := sites[0].Client.Cancel(ctx, "test/step-11/uiuc"); err != nil || rec.State != core.StateCancelled {
				t.Errorf("out-of-band cancel = %+v, %v", rec, err)
			}
		}
	}
	c, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := c.Run(ctx)
	if err == nil || report.FailedStep != 11 {
		t.Fatalf("run = %+v, %v; want a failure at step 11", report, err)
	}
	for _, s := range sites {
		name := "test/step-12/" + s.Name
		rec, err := s.Client.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != core.StateCancelled {
			t.Errorf("%s ended %s, want cancelled (orphaned speculation)", name, rec.State)
		}
	}
}
