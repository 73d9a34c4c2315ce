package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/most"
	"neesgrid/internal/structural"
	"neesgrid/internal/trace"
)

// FaultOutcome records whether a scheduled fault actually fired.
type FaultOutcome struct {
	Kind  string `json:"kind"`
	Step  int    `json:"step"`
	Site  string `json:"site,omitempty"`
	Tier  string `json:"tier,omitempty"`
	Fired bool   `json:"fired"`
}

// Verdict is the deterministic report of a scenario run: every field is a
// pure function of the scenario file, so two runs of the same scenario
// must produce byte-identical verdicts (the CI chaos lane checks exactly
// that). Wall-clock observations — per-fault recovery latency, step
// latency — are deliberately absent; they live in telemetry and trace.
type Verdict struct {
	Scenario        string         `json:"scenario"`
	Topology        string         `json:"topology"`
	Seed            int64          `json:"seed"`
	Steps           int            `json:"steps"`
	CheckpointEvery int            `json:"checkpoint_every"`
	Completed       bool           `json:"completed"`
	FinalStep       int            `json:"final_step"`
	Incarnations    int            `json:"incarnations"`
	DeathSteps      []int          `json:"death_steps"`
	SiteRestarts    map[string]int `json:"site_restarts,omitempty"`
	// ForcedStreamDrops counts NSDS samples swallowed by drop storms —
	// scheduled drops only, never timing-dependent backpressure drops.
	ForcedStreamDrops uint64 `json:"forced_stream_drops"`
	// TrajectoryDigest hashes every committed state (bit-exact float64
	// images) across all incarnations in commit order. Two runs that differ
	// anywhere in the structural response differ here.
	TrajectoryDigest string         `json:"trajectory_digest"`
	Faults           []FaultOutcome `json:"faults"`
}

// Marshal renders the verdict in its canonical byte form.
func (v *Verdict) Marshal() []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Verdict is a plain value type; this cannot fail.
		panic(err)
	}
	return append(data, '\n')
}

// Options tunes a scenario run.
type Options struct {
	// CheckpointPath overrides where the coordinator keeps its checkpoint log
	// (default: a temp directory removed after the run).
	CheckpointPath string
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// engine carries the per-run fault state shared between the supervision
// loop and the coordinator callbacks. All callbacks run on the coordinator
// goroutine and the loop only touches state between incarnations, so no
// locking is needed.
type engine struct {
	sc        *Scenario
	exp       *most.Experiment
	fired     []bool
	restarted []bool
	hash      hash.Hash
	log       func(format string, args ...any)

	awaitRecovery bool
	deathAt       time.Time
	deathStep     int
}

// Run executes a scenario end to end: build the topology, run coordinator
// incarnations across the scheduled faults, resume each crash from the
// checkpoint, and return the deterministic verdict. An error means the
// harness itself failed; a scenario whose faults outlast the restart
// budget returns Completed=false with a nil error.
func Run(ctx context.Context, sc *Scenario, opts Options) (*Verdict, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	spec, err := sc.Spec()
	if err != nil {
		return nil, err
	}
	ckptPath := opts.CheckpointPath
	if ckptPath == "" {
		dir, err := os.MkdirTemp("", "chaos-"+sc.Name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckptPath = filepath.Join(dir, "coord.ckpt")
	}
	eng := &engine{
		sc:        sc,
		fired:     make([]bool, len(sc.Faults)),
		restarted: make([]bool, len(sc.Faults)),
		hash:      sha256.New(),
		log:       opts.Log,
	}
	if eng.log == nil {
		eng.log = func(string, ...any) {}
	}
	spec.Checkpoint = &coord.CheckpointConfig{Path: ckptPath, Every: sc.checkpointEvery()}
	spec.Interrupt = eng.interrupt
	spec.OnStep = eng.onStep
	// Stream every step through the DAQ so NSDS drop storms have samples to
	// eat and the viewers see the run the way the paper's audience did.
	spec.DAQEvery = 1

	exp, err := most.Build(spec)
	if err != nil {
		return nil, err
	}
	defer func() { _ = exp.Stop() }()
	eng.exp = exp

	steps := spec.Steps
	if steps <= 0 {
		steps = spec.Frame.Steps
	}
	verdict := &Verdict{
		Scenario:        sc.Name,
		Topology:        spec.Name,
		Seed:            sc.Seed,
		Steps:           steps,
		CheckpointEvery: sc.checkpointEvery(),
		DeathSteps:      []int{},
		SiteRestarts:    map[string]int{},
	}

	for inc := 1; ; inc++ {
		resumeFrom := -1
		if exp.Spec.Resume != nil {
			resumeFrom = exp.Spec.Resume.Step
		}
		ictx, sp := exp.Tracer.Start(ctx, "chaos.incarnation", trace.KindInternal)
		sp.SetAttr("scenario", sc.Name)
		sp.SetAttr("incarnation", strconv.Itoa(inc))
		if resumeFrom >= 0 {
			sp.SetAttr("resume_from", strconv.Itoa(resumeFrom))
		}
		res, err := exp.Run(ictx)
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, fmt.Errorf("chaos: incarnation %d: %w", inc, err)
		}
		sp.SetError(res.Err)
		sp.End()

		if res.Err == nil {
			verdict.Completed = true
			verdict.FinalStep = res.Report.StepsCompleted
			verdict.Incarnations = inc
			eng.log("incarnation %d completed the run at step %d", inc, verdict.FinalStep)
			break
		}
		failedStep := res.Report.FailedStep
		verdict.DeathSteps = append(verdict.DeathSteps, failedStep)
		eng.log("incarnation %d died at step %d: %v", inc, failedStep, res.Err)
		exp.Telemetry.Counter("chaos.coordinator.deaths").Inc()
		exp.Telemetry.Event("chaos", "coordinator.death", map[string]any{
			"incarnation": inc, "step": failedStep, "error": res.Err.Error(),
		})
		if len(verdict.DeathSteps) > sc.maxRestarts() {
			verdict.Completed = false
			verdict.FinalStep = res.Report.StepsCompleted
			verdict.Incarnations = inc
			eng.log("restart budget (%d) exhausted; giving up at step %d",
				sc.maxRestarts(), failedStep)
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}

		// Restart any site whose scheduled daemon kill has fired: a fresh
		// NTCP server (empty transaction table) over the still-wound
		// specimen. Must happen before the next incarnation re-proposes.
		for i := range sc.Faults {
			f := &sc.Faults[i]
			if f.Kind != KindKillSite || !eng.fired[i] || eng.restarted[i] {
				continue
			}
			site, ok := exp.Site(f.Site)
			if !ok {
				return nil, fmt.Errorf("chaos: kill-site fault targets unknown site %q", f.Site)
			}
			if err := site.RestartServer(); err != nil {
				return nil, err
			}
			eng.restarted[i] = true
			verdict.SiteRestarts[f.Site]++
			exp.Telemetry.Event("chaos", "site.restarted", map[string]any{
				"site": f.Site, "step": f.Step,
			})
			eng.log("restarted site daemon %s after scheduled kill at step %d", f.Site, f.Step)
		}

		cp, err := coord.LoadCheckpoint(ckptPath)
		if err != nil {
			return nil, fmt.Errorf("chaos: incarnation %d left no usable checkpoint: %w", inc, err)
		}
		exp.Spec.Resume = cp
		eng.awaitRecovery = true
		eng.deathAt = time.Now()
		eng.deathStep = failedStep
		eng.log("resuming incarnation %d from checkpoint at step %d", inc+1, cp.Step)
	}

	// Quiesce each site's relay tier (if any) before reading drop
	// counters: the relay forwards asynchronously, so without a drain a
	// scheduled relay-tier drop storm could still be mid-flight and the
	// verdict would depend on timing.
	drainCtx, cancelDrain := context.WithTimeout(ctx, 30*time.Second)
	defer cancelDrain()
	for _, s := range exp.Sites {
		if err := s.DrainStream(drainCtx); err != nil {
			return nil, fmt.Errorf("chaos: draining %s stream: %w", s.Spec.Name, err)
		}
		verdict.ForcedStreamDrops += s.Hub.ForcedDrops()
		if s.RelayHub != nil {
			verdict.ForcedStreamDrops += s.RelayHub.ForcedDrops()
		}
	}
	verdict.TrajectoryDigest = hex.EncodeToString(eng.hash.Sum(nil))
	verdict.Faults = make([]FaultOutcome, len(sc.Faults))
	for i, f := range sc.Faults {
		verdict.Faults[i] = FaultOutcome{
			Kind: f.Kind, Step: f.Step, Site: f.Site, Tier: f.Tier, Fired: eng.fired[i],
		}
	}
	return verdict, nil
}

// interrupt is the coordinator's pre-step hook: a scheduled coordinator
// kill fires here, before any network traffic for the step, so injector
// call counts stay a pure function of committed steps.
func (e *engine) interrupt(step int) error {
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Kind == KindKillCoordinator && f.Step == step && !e.fired[i] {
			e.fired[i] = true
			return fmt.Errorf("chaos: scheduled coordinator kill at step %d", step)
		}
	}
	return nil
}

// onStep observes every committed state: it extends the trajectory digest,
// reports recovery latency after a resume, and arms the faults scheduled
// for the next step — at commit time, so a fault for step N is in place
// before N's first network call.
func (e *engine) onStep(st structural.State) {
	e.digest(st)
	if e.awaitRecovery {
		e.awaitRecovery = false
		d := time.Since(e.deathAt)
		e.exp.Telemetry.Histogram("chaos.recovery.seconds").ObserveDuration(d)
		e.exp.Telemetry.Event("chaos", "fault.recovered", map[string]any{
			"death_step": e.deathStep, "resumed_step": st.Step,
			"seconds": d.Seconds(),
		})
		e.log("recovered: step %d committed %.3fs after the death at step %d",
			st.Step, d.Seconds(), e.deathStep)
	}
	e.arm(st.Step + 1)
}

// arm fires the faults scheduled for step `next`. Consumable faults (drop,
// outage, kills, drop storms) fire exactly once even when a resume
// re-commits their arming step; delay ramps are recomputed every step —
// setting an absolute delay is idempotent.
func (e *engine) arm(next int) {
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		switch f.Kind {
		case KindDelay:
			e.applyDelay(f, next)
			continue
		case KindKillCoordinator:
			continue // fired by interrupt
		}
		if f.Step != next || e.fired[i] {
			continue
		}
		e.fired[i] = true
		e.exp.Telemetry.Event("chaos", "fault.armed", map[string]any{
			"kind": f.Kind, "step": f.Step, "site": f.Site, "count": f.Count,
		})
		for _, s := range e.targets(f) {
			switch f.Kind {
			case KindDrop:
				s.Injector.FailNext(f.Count)
			case KindOutage:
				s.Injector.ScheduleOutage(0, f.Count)
			case KindKillSite:
				s.FailNextExecute(fmt.Errorf("chaos: scheduled site-daemon kill at step %d", f.Step))
			case KindNSDSDrop:
				// Tier-targeted drop storms: "relay" eats samples at the
				// viewer-facing relay hub, anything else at the DAQ hub.
				// StreamHub falls back to the DAQ hub when the topology
				// runs without a relay tier.
				if f.Tier == "relay" {
					s.StreamHub().DropNext(f.Count)
				} else {
					s.Hub.DropNext(f.Count)
				}
			}
		}
	}
}

// applyDelay sets the extra WAN delay a ramp prescribes for step `next`:
// linear from 0 at f.Step up to f.DelayMS at f.EndStep, cleared after the
// ramp; constant from f.Step on when no EndStep is given.
func (e *engine) applyDelay(f *Fault, next int) {
	if next < f.Step {
		return
	}
	var d time.Duration
	switch {
	case f.EndStep == 0:
		d = time.Duration(f.DelayMS) * time.Millisecond
	case next > f.EndStep:
		d = 0
	default:
		span := f.EndStep - f.Step + 1
		d = time.Duration(f.DelayMS) * time.Millisecond *
			time.Duration(next-f.Step+1) / time.Duration(span)
	}
	idx := e.faultIndex(f)
	if d > 0 && !e.fired[idx] {
		e.fired[idx] = true
	}
	for _, s := range e.targets(f) {
		s.Injector.SetExtraDelay(d)
	}
}

func (e *engine) faultIndex(f *Fault) int {
	for i := range e.sc.Faults {
		if &e.sc.Faults[i] == f {
			return i
		}
	}
	return 0
}

// targets resolves a fault's site selector ("" = every site).
func (e *engine) targets(f *Fault) []*most.Site {
	if f.Site == "" {
		return e.exp.Sites
	}
	if s, ok := e.exp.Site(f.Site); ok {
		return []*most.Site{s}
	}
	return nil
}

// digest folds one committed state into the trajectory hash, bit-exact.
func (e *engine) digest(st structural.State) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		e.hash.Write(buf[:])
	}
	put(uint64(st.Step))
	put(math.Float64bits(st.T))
	for _, vec := range [][]float64{st.D, st.V, st.A, st.F} {
		for _, v := range vec {
			put(math.Float64bits(v))
		}
	}
}
