package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/groundmotion"
	"neesgrid/internal/most"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
)

// warmSteps fills chain caches, keep-alive connections and lazy init before
// the first timed step.
const warmSteps = 100

// mostVariant is one of the four MOST step-path workloads.
type mostVariant struct {
	name     string
	steps    int // per repeat, before scaling
	variant  most.Variant
	fastPath bool
	wan      bool // 5 ms one-way on every site, pipelined protocol
}

// record generates the seeded ground motion for n steps on the frame grid.
func record(seed int64, dt float64, n int) (*groundmotion.Record, error) {
	cfg := groundmotion.ElCentroLike()
	cfg.Seed = seed
	cfg.Dt = dt
	cfg.Duration = float64(n) * dt
	return groundmotion.Generate(cfg)
}

// mostSpec is the variant's experiment description for n steps.
func (v mostVariant) spec(seed int64, n int) (most.Spec, error) {
	spec := most.DryRunSpec(v.variant)
	spec.Steps = n
	spec.FastPath = v.fastPath
	if v.wan {
		spec.Pipeline = true
		for i := range spec.Sites {
			spec.Sites[i].WAN = faultnet.Profile{Latency: 5 * time.Millisecond}
		}
	}
	ground, err := record(seed, spec.Frame.Dt, max(n, warmSteps))
	if err != nil {
		return spec, err
	}
	spec.Ground = ground
	return spec, nil
}

// mostRun is a built MOST topology being measured.
type mostRun struct {
	v     mostVariant
	s     *settings
	exp   *most.Experiment
	steps int
	// execs is how many restoring-force evaluations a run of steps makes,
	// counted on the local reference: what every site must execute, once.
	execs int
	// refPeak is the local-assembly peak displacement (NaN for rig-backed
	// variants, whose actuators do not follow the numerical element).
	refPeak float64

	peaks    []float64
	gaps     []float64 // every step gap of every repeat
	cpu      float64   // summed over repeats
	lastTel  telemetry.Snapshot
	baseTel  telemetry.Snapshot
	baseSrv  []core.Stats
	problems []string
}

func (v mostVariant) build(s *settings) (instance, error) {
	m := &mostRun{v: v, s: s, steps: s.size(v.steps, 30)}
	spec, err := v.spec(s.seed, m.steps)
	if err != nil {
		return nil, err
	}
	sp := s.tr.start("most.Build", 0, nil)
	m.exp, err = most.Build(spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	if err := m.reference(); err != nil {
		m.close()
		return nil, err
	}
	if _, _, err := m.runOnce("warm", min(warmSteps, m.steps), nil); err != nil {
		m.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.baseTel = m.exp.Telemetry.Snapshot()
	m.baseSrv = m.serverStats()
	return m, nil
}

// reference runs the same record through structural.Run with a local
// assembly: the answer the distributed run must reproduce.
func (m *mostRun) reference() error {
	frame := m.exp.Spec.Frame
	a, err := frame.Assembly()
	if err != nil {
		return err
	}
	sys := frame.System(a)
	inner := sys.R
	sys.R = func(d []float64) ([]float64, error) {
		m.execs++
		return inner(d)
	}
	h, err := structural.Run(sys, structural.NewExplicitNewmark(), structural.RunOptions{
		Dt: frame.Dt, Steps: m.steps, Ground: m.exp.Spec.Ground.At,
	})
	if err != nil {
		return fmt.Errorf("local reference: %w", err)
	}
	m.refPeak = math.NaN()
	if m.v.variant == most.VariantSimulation {
		m.refPeak = h.PeakDisplacement(0)
	}
	return nil
}

func (m *mostRun) serverStats() []core.Stats {
	out := make([]core.Stats, len(m.exp.Sites))
	for i, site := range m.exp.Sites {
		out[i] = site.Server.Stats()
	}
	return out
}

// runOnce resets the specimens and runs n steps under a fresh run id (the
// sites dedupe transactions by name). onStep sees every committed state.
func (m *mostRun) runOnce(id string, n int, onStep func(structural.State)) (*most.Results, time.Duration, error) {
	for _, site := range m.exp.Sites {
		if err := site.Reset(); err != nil {
			return nil, 0, err
		}
	}
	m.exp.Spec.Name = id
	m.exp.Spec.Steps = n
	m.exp.Spec.OnStep = onStep
	start := time.Now()
	res, err := m.exp.Run(context.Background())
	return res, time.Since(start), err
}

func (m *mostRun) repeat(r int) (repeat, error) {
	stamps := make([]time.Time, 0, m.steps+1)
	root := m.s.tr.start("most.Run", int64(r+1), nil)
	cpu := cpuSeconds()
	res, wall, err := m.runOnce(fmt.Sprintf("bench-r%d", r), m.steps, func(structural.State) {
		stamps = append(stamps, time.Now())
	})
	cpu = cpuSeconds() - cpu
	root.end()
	if err != nil {
		return repeat{}, err
	}
	done := res.Report.StepsCompleted
	rep := repeat{
		ops:      m.steps,
		failed:   m.steps - done,
		opsPerS:  float64(done) / wall.Seconds(),
		cpuPerOp: cpu / float64(max(done, 1)),
	}
	for i := 1; i < len(stamps); i++ {
		rep.lat = append(rep.lat, stamps[i].Sub(stamps[i-1]).Seconds())
		m.s.tr.record("step", int64(r+1)<<32|int64(i), root, stamps[i-1], stamps[i])
	}
	m.gaps = append(m.gaps, rep.lat...)
	m.cpu += cpu
	if !res.Report.Completed || res.Err != nil {
		m.problems = append(m.problems, fmt.Sprintf("repeat %d: completed %d/%d: %v", r, done, m.steps, res.Err))
	}
	if res.Report.Retries != 0 || res.Report.Recovered != 0 {
		m.problems = append(m.problems, fmt.Sprintf("repeat %d: %d retries, %d recovered on a fault-free path",
			r, res.Report.Retries, res.Report.Recovered))
	}
	m.peaks = append(m.peaks, res.History.PeakDisplacement(0))
	m.lastTel = res.Report.Telemetry
	return rep, nil
}

func (m *mostRun) finish(res *result) {
	res.check("runs-completed", len(m.problems) == 0, "%v", m.problems)

	identical := true
	for _, p := range m.peaks {
		identical = identical && p == m.peaks[0]
	}
	res.check("peak-displacement-repeats", identical, "peaks differ across repeats: %v", m.peaks)
	if !math.IsNaN(m.refPeak) && len(m.peaks) > 0 {
		// The classic and fast paths impose exactly the integrator's
		// displacements. The pipelined path executes a proposal made at a
		// predicted displacement when it falls within coord's 1 mm
		// speculation tolerance, and the hysteretic columns carry that on, so
		// its peak tracks the local one to a few tolerances, not bit for bit.
		off, allowed := math.Abs(m.peaks[0]-m.refPeak), 1e-9*math.Abs(m.refPeak)
		if m.v.wan {
			allowed = 3e-3
		}
		res.check("peak-displacement-local", off <= allowed,
			"distributed peak %v vs local %v: %.3g m apart, %.3g allowed", m.peaks[0], m.refPeak, off, allowed)
	}

	// At-most-once: every site executed each restoring-force evaluation of
	// each repeat exactly once and answered nothing from its dedupe table.
	runs := len(m.peaks)
	var proposed, accepted int
	for i, now := range m.serverStats() {
		base := m.baseSrv[i]
		name := m.exp.Sites[i].Spec.Name
		res.check("executed-once."+name, now.Executed-base.Executed == runs*m.execs,
			"executed %d, want %d", now.Executed-base.Executed, runs*m.execs)
		res.check("no-replays."+name, now.DedupedReplay == base.DedupedReplay,
			"%d deduped replays", now.DedupedReplay-base.DedupedReplay)
		proposed += now.Proposed - base.Proposed
		accepted += now.Accepted - base.Accepted
	}

	tel, base := m.lastTel, m.baseTel
	steps := float64(runs * m.steps)
	counter := func(name string) float64 { return float64(tel.Counters[name] - base.Counters[name]) }
	gaps := sorted(m.gaps)
	p50 := percentile(gaps, 50)
	res.layer["coord.envelopes_per_step."+m.v.name] = counter("faultnet.calls") / steps
	res.layer["coord.step_s_p50."+m.v.name] = p50
	res.layer["coord.step_s_p99."+m.v.name] = percentile(gaps, 99)
	res.layer["proc.cpu_s_per_step."+m.v.name] = m.cpu / steps
	if m.v.wan {
		hits, miss := counter("coord.pipeline.hits"), counter("coord.pipeline.mispredicts")
		res.layer["coord.pipeline_hit_share"] = hits / max(hits+miss, 1)
		res.layer["coord.proposals_revised"] = counter("coord.proposals.revised")
		// Every site's delay is injected concurrently, so a step waits for
		// one site's share of the sum.
		delay := tel.Histograms["faultnet.delay.seconds"].Sum - base.Histograms["faultnet.delay.seconds"].Sum
		res.layer["faultnet.delay_s_per_step"] = delay / steps
		res.layer["faultnet.floor_share"] = delay / steps / float64(len(m.exp.Sites)) / p50
	}
	if m.v.name == "most-lan" {
		hits, miss := m.exp.Trust.CacheStats()
		res.layer["gsi.chaincache_hit_share"] = float64(hits) / float64(max(hits+miss, 1))
		res.layer["core.accept_share"] = float64(accepted) / float64(max(proposed, 1))
	}
}

func (m *mostRun) close() {
	if err := m.exp.Stop(); err != nil {
		fmt.Printf("# warning: %v\n", err)
	}
}
