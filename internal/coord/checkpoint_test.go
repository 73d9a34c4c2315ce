package coord

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

// bilinearPair returns matched hysteretic elements for a reference run and a
// checkpointed run. Hysteresis is the point: if resume re-executed a step at
// a site instead of replaying it from the dedupe table, the element's state
// would double-advance and the trajectory would diverge.
func bilinearElement() structural.Element { return structural.NewBilinear(2000, 150, 0.05) }

func checkpointConfig(steps int) Config {
	cfg := sdofConfig(100, 2000, steps)
	cfg.K = structural.Diagonal([]float64{2000})
	return cfg
}

func mustRun(t *testing.T, cfg Config, sites []Site) (*structural.History, *Report) {
	t.Helper()
	c, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	hist, rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return hist, rep
}

// Checkpoint every 10 steps, chaos-kill the coordinator, resume a fresh one
// from the snapshot against the same (still running) sites: every state the
// resumed run produces — the replayed tail and the live steps — must match
// an uninterrupted run. Hysteresis is the point (see bilinearElement). Two
// kill points:
//
//   - 36: the last checkpoint is at step 30, so steps 31–35 were executed at
//     the site but are "forgotten" by the coordinator — resume must replay
//     them through the dedupe table, not re-execute them.
//   - 31, the step right after a checkpoint: a pipelined incarnation's last
//     envelope left an accepted speculation for step 31 holding its PREDICTED
//     displacement, so the resumed run's very first propose replays that
//     stale accept. In exactness mode (tolerance < 0) the guard in the
//     propose walk must cancel it and walk to a revision rather than execute
//     the wrong displacement.
func TestCoordinatorCheckpointResume(t *testing.T) {
	eachStepping(t, func(t *testing.T, sc stepping) {
		for _, killAt := range []int{31, 36} {
			t.Run(fmt.Sprintf("kill-at-%d", killAt), func(t *testing.T) {
				checkpointKillResume(t, sc, killAt)
			})
		}
	})
}

func checkpointKillResume(t *testing.T, sc stepping, killAt int) {
	const steps = 60
	mkCfg := func(path string) Config {
		cfg := checkpointConfig(steps)
		sc.set(&cfg)
		cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 10}
		return cfg
	}
	// Reference: an uninterrupted classic run on its own harness. The exact
	// rows must reproduce it bit for bit; the pipelined row executes
	// predictions (and its predictor restarts cold on resume), so it stays
	// within the bound TestPipelinedMatchesBaselineWithinTolerance sets.
	refCfg := checkpointConfig(steps)
	refH := newHarness(t, []structural.Element{bilinearElement()}, nil)
	refHist, _ := mustRun(t, refCfg, refH.coordSites(core.DefaultRetry))
	if refHist.Len() != steps+1 {
		t.Fatalf("reference recorded %d states, want %d", refHist.Len(), steps+1)
	}
	matches := func(st structural.State) bool {
		ref := refHist.States[st.Step]
		if sc.exact {
			return sameState(ref, st)
		}
		return math.Abs(st.D[0]-ref.D[0]) <= 0.02*refHist.PeakDisplacement(0)
	}

	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	cfg := mkCfg(path)
	killErr := errors.New("chaos: scheduled coordinator kill")
	cfg.Interrupt = func(s int) error {
		if s == killAt {
			return killErr
		}
		return nil
	}
	sites := h.coordSites(core.DefaultRetry)
	c1, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	hist1, rep1, err := c1.Run(context.Background())
	if !errors.Is(err, killErr) {
		t.Fatalf("run error = %v, want the interrupt error", err)
	}
	if rep1.FailedStep != killAt || rep1.StepsCompleted != killAt-1 {
		t.Fatalf("failed step %d / completed %d, want %d / %d",
			rep1.FailedStep, rep1.StepsCompleted, killAt, killAt-1)
	}
	if rep1.Checkpoints != 4 { // steps 0, 10, 20, 30
		t.Fatalf("wrote %d checkpoints, want 4", rep1.Checkpoints)
	}
	for _, st := range hist1.States {
		if !matches(st) {
			t.Fatalf("pre-crash step %d diverged from reference", st.Step)
		}
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != 30 {
		t.Fatalf("checkpoint at step %d, want 30", cp.Step)
	}
	cfg2 := mkCfg(path)
	cfg2.Resume = cp
	hist2, rep2 := mustRun(t, cfg2, sites)
	if rep2.ResumedFrom != 30 || !rep2.Completed || rep2.StepsCompleted != steps {
		t.Fatalf("resumed report = %+v", rep2)
	}
	if rep2.Checkpoints != 3 { // steps 40, 50, 60
		t.Fatalf("resumed run wrote %d checkpoints, want 3", rep2.Checkpoints)
	}

	// The replayed tail and the live steps, including the re-proposed
	// ones the dead incarnation had already executed.
	if hist2.Len() == 0 {
		t.Fatal("resumed history empty")
	}
	if last := hist2.States[hist2.Len()-1]; last.Step != steps {
		t.Fatalf("resumed run ended at step %d, want %d", last.Step, steps)
	}
	for _, st := range hist2.States {
		if !matches(st) {
			t.Fatalf("post-resume step %d diverged from reference:\nref %+v\ngot %+v",
				st.Step, refHist.States[st.Step], st)
		}
	}
	if cfg.Pipeline && cfg.PipelineTolerance < 0 && killAt == 31 {
		if got := rep2.Telemetry.Counters["coord.proposals.stale_cancelled"]; got == 0 {
			t.Fatal("stale speculative accept was never cancelled on resume")
		}
	}

	// The final checkpoint (written at the last step regardless of
	// cadence) records the completed run.
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Step != steps {
		t.Fatalf("final checkpoint at step %d, want %d", final.Step, steps)
	}
}

// sameState compares two states bit-for-bit.
func sameState(a, b structural.State) bool {
	if a.Step != b.Step || a.T != b.T {
		return false
	}
	for i := range a.D {
		if a.D[i] != b.D[i] || a.V[i] != b.V[i] || a.A[i] != b.A[i] || a.F[i] != b.F[i] {
			return false
		}
	}
	return true
}

// stiffIntegrator is an Integrator that is deliberately not Resumable.
type stiffIntegrator struct{ structural.Integrator }

func (stiffIntegrator) Name() string { return "not-resumable" }

func TestCheckpointConfigValidation(t *testing.T) {
	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	sites := h.coordSites(core.DefaultRetry)

	cfg := checkpointConfig(10)
	cfg.Checkpoint = &CheckpointConfig{Path: "x"}
	cfg.Integrator = stiffIntegrator{structural.NewExplicitNewmark()}
	if _, err := New(cfg, sites...); err == nil || !strings.Contains(err.Error(), "checkpoint/resume") {
		t.Fatalf("non-resumable integrator accepted: %v", err)
	}

	good := &Checkpoint{
		Version: checkpointVersion, RunID: "test", Step: 5, Steps: 10, Dt: 0.01,
		Integrator:      "explicit-newmark",
		IntegratorState: []byte(`{}`),
		Tail:            []structural.State{{Step: 5}},
	}
	mk := func(mut func(cp *Checkpoint)) Config {
		cp := *good
		tail := make([]structural.State, len(good.Tail))
		copy(tail, good.Tail)
		cp.Tail = tail
		mut(&cp)
		cfg := checkpointConfig(10)
		cfg.Resume = &cp
		return cfg
	}
	cases := []struct {
		name string
		mut  func(cp *Checkpoint)
	}{
		{"wrong run id", func(cp *Checkpoint) { cp.RunID = "other" }},
		{"wrong dt", func(cp *Checkpoint) { cp.Dt = 0.02 }},
		{"wrong integrator", func(cp *Checkpoint) { cp.Integrator = "alpha-os(-0.05)" }},
		{"past final step", func(cp *Checkpoint) { cp.Step = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(mk(tc.mut), sites...); err == nil {
				t.Fatal("invalid resume checkpoint accepted")
			}
		})
	}
}

func TestLoadCheckpointRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadCheckpoint(write("garbage", "{")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, err := LoadCheckpoint(write("version", `{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadCheckpoint(write("empty", `{"version":1,"step":3}`)); err == nil {
		t.Fatal("checkpoint without state accepted")
	}
	if _, err := LoadCheckpoint(write("tail", `{"version":1,"step":3,`+
		`"integrator_state":{"x":1},"tail":[{"Step":2}]}`)); err == nil {
		t.Fatal("tail/step mismatch accepted")
	}
}

func TestSaveCheckpointAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	base := &Checkpoint{
		Version: checkpointVersion, RunID: "r", Dt: 0.01, Steps: 9,
		Integrator:      "explicit-newmark",
		IntegratorState: []byte(`{"a":1}`),
	}
	for step := 1; step <= 3; step++ {
		cp := *base
		cp.Step = step
		cp.Tail = []structural.State{{Step: step}}
		if err := SaveCheckpoint(path, &cp); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step != step {
			t.Fatalf("loaded step %d, want %d", got.Step, step)
		}
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the checkpoint", len(entries))
	}
}
