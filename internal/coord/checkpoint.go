// Checkpoint/resume: the durability half of surviving step 1493. The
// coordinator appends its committed per-step state to a journal, one
// fsync'd record per checkpoint; a restarted coordinator resumes from the
// log's last record and re-proposes the failed step under the same
// deterministic transaction names, so the sites' dedupe tables replay
// already-decided transactions and no action is ever applied twice (paper
// §2.1's at-most-once contract is what makes resume safe against live
// rigs).
package coord

import (
	"encoding/json"
	"fmt"

	"neesgrid/internal/journal"
	"neesgrid/internal/structural"
)

// checkpointVersion guards the layout of a checkpoint record.
const checkpointVersion = 1

// Checkpoint is the coordinator's durable state after a committed step:
// everything a fresh process needs to continue the run as if it had never
// died. Each is one compact-JSON record of the checkpoint log; see
// DESIGN.md §5e for the layout.
type Checkpoint struct {
	// Version is the checkpoint layout version.
	Version int `json:"version"`
	// RunID is the transaction-name prefix; resume refuses a mismatched
	// run so a stale file cannot splice two experiments together.
	RunID string `json:"run_id"`
	// Step is the last committed step index.
	Step int `json:"step"`
	// T is the simulation time at Step.
	T float64 `json:"t"`
	// Steps is the run's total step count (sanity-checked on resume).
	Steps int `json:"steps"`
	// Dt is the integration step (sanity-checked on resume).
	Dt float64 `json:"dt"`
	// Integrator names the scheme that produced State; resume refuses a
	// different scheme.
	Integrator string `json:"integrator"`
	// IntegratorState is the scheme's opaque snapshot (structural.Resumable).
	IntegratorState json.RawMessage `json:"integrator_state"`
	// Tail is the last few committed states — enough history for the
	// resumed run's report and for stitching response plots across the
	// crash. Tail[len-1] is the state at Step.
	Tail []structural.State `json:"tail"`
	// TraceID is the trace ID of the last committed step's root span, so
	// the resumed run's spans can point back at the timeline that died.
	TraceID string `json:"trace_id,omitempty"`
}

// CheckpointConfig enables per-step checkpointing on a Coordinator.
type CheckpointConfig struct {
	// Path is the checkpoint log. A fresh run replaces whatever is there
	// atomically with its step-0 checkpoint; a resumed run appends to it.
	// Every checkpoint is fsync'd before its step completes, and a crash
	// mid-append leaves the previous checkpoint as the log's last record.
	Path string
	// Every writes a checkpoint after every Every committed steps
	// (default 1; step 0 and the final step are always written).
	Every int
	// Tail is how many trailing states to embed (default 8).
	Tail int
}

func (c *CheckpointConfig) every() int {
	if c.Every <= 0 {
		return 1
	}
	return c.Every
}

func (c *CheckpointConfig) tail() int {
	if c.Tail <= 0 {
		return 8
	}
	return c.Tail
}

// checkpointLogMax is the checkpoint log's size past which the next
// checkpoint compacts it: the log is replaced by a snapshot holding only
// that checkpoint. Resume reads only the last record, so compaction loses
// nothing; the bound keeps a long run's log, and the replay that reads it
// back, from growing with the step count.
const checkpointLogMax = 1 << 20

// LoadCheckpoint reads the last record of the checkpoint log at path and
// validates it. A torn final record — the coordinator died mid-append —
// loads the checkpoint before it; a corrupt record anywhere else, or a file
// that holds no complete record, is refused.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var rec []byte
	if err := journal.Replay(path, func(r []byte) { rec = r }); err != nil {
		return nil, fmt.Errorf("coord: read checkpoint: %w", err)
	}
	if rec == nil {
		return nil, fmt.Errorf("coord: checkpoint %s holds no complete record", path)
	}
	var cp Checkpoint
	if err := json.Unmarshal(rec, &cp); err != nil {
		return nil, fmt.Errorf("coord: decode checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("coord: checkpoint %s: unsupported version %d", path, cp.Version)
	}
	if cp.Step < 0 || len(cp.IntegratorState) == 0 || len(cp.Tail) == 0 {
		return nil, fmt.Errorf("coord: checkpoint %s: incomplete", path)
	}
	if last := cp.Tail[len(cp.Tail)-1]; last.Step != cp.Step {
		return nil, fmt.Errorf("coord: checkpoint %s: tail ends at step %d, want %d",
			path, last.Step, cp.Step)
	}
	n := len(cp.Tail[0].D)
	for i, st := range cp.Tail {
		if i > 0 && st.Step <= cp.Tail[i-1].Step {
			return nil, fmt.Errorf("coord: checkpoint %s: tail steps out of order", path)
		}
		if len(st.D) != n || len(st.V) != n || len(st.A) != n || len(st.F) != n {
			return nil, fmt.Errorf("coord: checkpoint %s: tail state %d has mismatched vectors", path, st.Step)
		}
	}
	return &cp, nil
}

// validateResume cross-checks a checkpoint against the run configuration.
func (c *Coordinator) validateResume(cp *Checkpoint) error {
	if cp.RunID != c.cfg.RunID {
		return fmt.Errorf("coord: checkpoint is for run %q, this run is %q", cp.RunID, c.cfg.RunID)
	}
	if cp.Dt != c.cfg.Dt {
		return fmt.Errorf("coord: checkpoint dt %g != configured %g", cp.Dt, c.cfg.Dt)
	}
	if cp.Integrator != c.cfg.Integrator.Name() {
		return fmt.Errorf("coord: checkpoint integrator %q != configured %q",
			cp.Integrator, c.cfg.Integrator.Name())
	}
	if n := c.cfg.M.Rows; len(cp.Tail) > 0 && len(cp.Tail[0].D) != n {
		return fmt.Errorf("coord: checkpoint tail has %d DOFs, the structure %d",
			len(cp.Tail[0].D), n)
	}
	if cp.Step >= c.cfg.Steps {
		return fmt.Errorf("coord: checkpoint step %d is at or past the final step %d",
			cp.Step, c.cfg.Steps)
	}
	return nil
}
