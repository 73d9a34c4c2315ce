package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/journal"
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
		Tail:            []structural.State{{Step: 5, D: []float64{0}, V: []float64{0}, A: []float64{0}, F: []float64{0}}},
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
		{"wrong DOF count", func(cp *Checkpoint) {
			cp.Tail[0].D, cp.Tail[0].V, cp.Tail[0].A, cp.Tail[0].F = nil, nil, nil, nil
		}},
	}
	if _, err := New(mk(func(*Checkpoint) {}), sites...); err != nil {
		t.Fatalf("valid resume checkpoint refused: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(mk(tc.mut), sites...); err == nil {
				t.Fatal("invalid resume checkpoint accepted")
			}
		})
	}
}

// writeLog writes a checkpoint log holding recs.
func writeLog(t testing.TB, path string, recs ...[]byte) {
	t.Helper()
	log, err := journal.Create(path, recs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkpointRecord is a valid checkpoint record at step.
func checkpointRecord(t testing.TB, step int) []byte {
	t.Helper()
	rec, err := json.Marshal(&Checkpoint{
		Version: checkpointVersion, RunID: "test", Step: step, Steps: 10, Dt: 0.01,
		Integrator:      "explicit-newmark",
		IntegratorState: []byte(`{"a":1}`),
		Tail:            []structural.State{{Step: step, D: []float64{1}, V: []float64{2}, A: []float64{3}, F: []float64{4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLoadCheckpointRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		writeLog(t, p, []byte(body))
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
	if _, err := LoadCheckpoint(write("order", `{"version":1,"step":3,`+
		`"integrator_state":{"x":1},"tail":[{"Step":3},{"Step":3}]}`)); err == nil {
		t.Fatal("tail out of order accepted")
	}
	if _, err := LoadCheckpoint(write("dims", `{"version":1,"step":3,`+
		`"integrator_state":{"x":1},"tail":[{"Step":3,"D":[1],"V":[1],"A":[1],"F":[]}]}`)); err == nil {
		t.Fatal("tail state with mismatched vectors accepted")
	}
	// A checkpoint file from before the journal: one plain JSON document.
	// Its first bytes read as a length that runs past the end of the file,
	// so the log holds no complete record.
	v1 := filepath.Join(dir, "v1.ckpt")
	doc, err := json.MarshalIndent(&Checkpoint{
		Version: checkpointVersion, RunID: "test", Step: 3, Steps: 10, Dt: 0.01,
		Integrator: "explicit-newmark", IntegratorState: []byte(`{"a":1}`),
		Tail: []structural.State{{Step: 3}},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(v1); err == nil || !strings.Contains(err.Error(), v1) {
		t.Fatalf("plain-JSON checkpoint: err = %v, want a refusal naming %s", err, v1)
	}
}

// A fresh run replaces a stale file at its checkpoint path with its step-0
// snapshot and appends every later checkpoint to it: one file, no temp
// files, and a second run over the same path starts a new log rather than
// extending the old one.
func TestSaveCheckpointAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(path, []byte("stale, and not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	const steps = 6
	for run := 0; run < 2; run++ {
		h := newHarness(t, []structural.Element{bilinearElement()}, nil)
		cfg := checkpointConfig(steps)
		cfg.Checkpoint = &CheckpointConfig{Path: path}
		_, rep := mustRun(t, cfg, h.coordSites(core.DefaultRetry))
		if rep.Checkpoints != steps+1 {
			t.Fatalf("run %d wrote %d checkpoints, want %d", run, rep.Checkpoints, steps+1)
		}
		var got []int
		if err := journal.Replay(path, func(rec []byte) {
			var cp Checkpoint
			if err := json.Unmarshal(rec, &cp); err != nil {
				t.Fatal(err)
			}
			got = append(got, cp.Step)
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[0 1 2 3 4 5 6]" {
			t.Fatalf("run %d: log holds checkpoints at steps %v", run, got)
		}
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory has %d entries, want only the checkpoint log", len(entries))
		}
	}
}

// A crash mid-append leaves a torn last record: cut anywhere inside it, the
// log loads the checkpoint before it. A flipped byte in an earlier record
// is corruption no crash explains, and the log is refused.
func TestLoadCheckpointTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole")
	writeLog(t, whole, checkpointRecord(t, 1), checkpointRecord(t, 2), checkpointRecord(t, 3))
	data, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	frame := 8 + len(checkpointRecord(t, 1)) // records 1 and 2 are one size
	last := 2 * frame
	torn := filepath.Join(dir, "torn")
	for cut := last; cut < len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(torn)
		if err != nil || cp.Step != 2 {
			t.Fatalf("cut at %d of %d: step %v, err %v; want step 2", cut, len(data), cp, err)
		}
	}
	// Every payload and checksum byte of the records before the last.
	for off := 0; off < last; off++ {
		if off%frame < 4 {
			continue // a length field; see DESIGN.md §5e
		}
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x20
		if err := os.WriteFile(torn, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(torn); !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want journal.ErrCorrupt", off, err)
		}
	}
}

// A run whose checkpoint log crosses checkpointLogMax compacts it to a
// snapshot of the latest checkpoint, and a coordinator killed after that
// resumes from the compacted log bit-identically.
func TestCheckpointLogCompactionResumes(t *testing.T) {
	const steps, killAt = 240, 200
	refH := newHarness(t, []structural.Element{bilinearElement()}, nil)
	refHist, _ := mustRun(t, checkpointConfig(steps), refH.coordSites(core.DefaultRetry))

	path := filepath.Join(t.TempDir(), "coord.ckpt")
	mkCfg := func() Config {
		cfg := checkpointConfig(steps)
		// A long tail makes each record tens of kilobytes, so the log
		// crosses the limit within the run.
		cfg.Checkpoint = &CheckpointConfig{Path: path, Tail: steps}
		return cfg
	}
	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	sites := h.coordSites(core.DefaultRetry)
	cfg := mkCfg()
	killErr := errors.New("chaos: scheduled coordinator kill")
	cfg.Interrupt = func(s int) error {
		if s == killAt {
			return killErr
		}
		return nil
	}
	c1, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := c1.Run(context.Background()); !errors.Is(err, killErr) || rep.Checkpoints != killAt {
		t.Fatalf("first incarnation: %d checkpoints, err %v", rep.Checkpoints, err)
	}
	records := 0
	if err := journal.Replay(path, func([]byte) { records++ }); err != nil {
		t.Fatal(err)
	}
	if records >= killAt {
		t.Fatalf("log holds %d records after %d checkpoints: never compacted", records, killAt)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() > 2*checkpointLogMax {
		t.Fatalf("log size %v (err %v), want at most %d", fi.Size(), err, 2*checkpointLogMax)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != killAt-1 {
		t.Fatalf("checkpoint at step %d, want %d", cp.Step, killAt-1)
	}
	cfg2 := mkCfg()
	cfg2.Resume = cp
	hist, rep := mustRun(t, cfg2, sites)
	if !rep.Completed || rep.ResumedFrom != killAt-1 {
		t.Fatalf("resumed report = %+v", rep)
	}
	if hist.Len() != steps+1 {
		t.Fatalf("resumed history holds %d states, want %d", hist.Len(), steps+1)
	}
	for _, st := range hist.States {
		if !sameState(refHist.States[st.Step], st) {
			t.Fatalf("step %d diverged from the uninterrupted run", st.Step)
		}
	}
	final, err := LoadCheckpoint(path)
	if err != nil || final.Step != steps {
		t.Fatalf("final checkpoint %v, err %v; want step %d", final, err, steps)
	}
}

// FuzzLoadCheckpoint loads a log whose last record is arbitrary bytes. It
// must never panic, and a checkpoint it accepts holds what validateResume
// and Run rely on.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(checkpointRecord(f, 4))
	f.Add([]byte(`{"version":1,"step":2,"integrator_state":{},"tail":[{"Step":1},{"Step":2}]}`))
	f.Add([]byte(`{"version":1,"step":0,"integrator_state":null,"tail":[{"Step":0,"D":[1e308]}]}`))
	f.Add([]byte(`{"version":1,"step":-1}`))
	f.Add([]byte("{"))
	first := checkpointRecord(f, 1)
	c := &Coordinator{cfg: Config{
		M: structural.Diagonal([]float64{1}), Dt: 0.01, Steps: 10, RunID: "test",
		Integrator: structural.NewExplicitNewmark(),
	}}
	path := filepath.Join(f.TempDir(), "ckpt")
	f.Fuzz(func(t *testing.T, rec []byte) {
		recs := [][]byte{first}
		if len(rec) > 0 {
			recs = append(recs, rec)
		}
		writeLog(t, path, recs...)
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		if cp.Version != checkpointVersion || cp.Step < 0 || len(cp.IntegratorState) == 0 || len(cp.Tail) == 0 {
			t.Fatalf("accepted an incomplete checkpoint: %+v", cp)
		}
		n := len(cp.Tail[0].D)
		for i, st := range cp.Tail {
			if i > 0 && st.Step <= cp.Tail[i-1].Step {
				t.Fatalf("accepted tail steps out of order: %+v", cp.Tail)
			}
			if len(st.D) != n || len(st.V) != n || len(st.A) != n || len(st.F) != n {
				t.Fatalf("accepted a tail state with mismatched vectors: %+v", st)
			}
		}
		if cp.Tail[len(cp.Tail)-1].Step != cp.Step {
			t.Fatalf("accepted a tail ending at %d for step %d", cp.Tail[len(cp.Tail)-1].Step, cp.Step)
		}
		_ = c.validateResume(cp)
	})
}
