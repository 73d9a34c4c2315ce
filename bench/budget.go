package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/most"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/structural"
)

// manualLoop steps the most-lan topology from the benchmark instead of
// through coord: structural.Run integrates, and the restoring force the
// benchmark supplies fans core.Client.Propose, then core.Client.Execute, out
// to the three sites. Each step is a trace: step → integrator |
// site.propose ×3 | site.execute ×3. It returns the step gaps.
func manualLoop(exp *most.Experiment, tr *tracer, runID string, steps int) ([]float64, error) {
	ctx := context.Background()
	type siteClient struct {
		name, point string
		cl          *core.Client
	}
	clients := make([]siteClient, len(exp.Sites))
	for i, site := range exp.Sites {
		if err := site.Reset(); err != nil {
			return nil, err
		}
		og := ogsi.NewClient("http://"+site.Addr, exp.Cred, exp.Trust)
		og.HTTP = &http.Client{Transport: ogsi.NewPinnedTransport(2)}
		clients[i] = siteClient{site.Spec.Name, site.Spec.Point, core.NewClient(og, core.DefaultRetry)}
	}

	// phase calls fn at every site at once and returns when all have answered.
	phase := func(name string, parent *span, fn func(i int, c siteClient) error) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := tr.start(name, 0, parent)
				errs[i] = fn(i, c)
				sp.end()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	var (
		stamps  []time.Time
		step    *span
		lastEnd time.Time
		n       int
	)
	frame := exp.Spec.Frame
	m := structural.Diagonal([]float64{frame.Mass})
	k := structural.Diagonal([]float64{frame.TotalK()})
	w := frame.NaturalFrequency()
	sys := &structural.System{M: m, K: k, C: structural.RayleighDamping(m, k, frame.DampingRatio, w, 5*w)}
	sys.R = func(d []float64) ([]float64, error) {
		now := time.Now()
		if step != nil {
			tr.record("integrator", 0, step, lastEnd, now)
			step.endAt(now)
		}
		stamps = append(stamps, now)
		n++
		step = tr.start("step", int64(n), nil)
		names := make([]string, len(clients))
		if err := phase("site.propose", step, func(i int, c siteClient) error {
			names[i] = fmt.Sprintf("%s/step-%d/%s", runID, n, c.name)
			rec, err := c.cl.Propose(ctx, &core.Proposal{Name: names[i],
				Actions: []core.Action{{ControlPoint: c.point, Displacements: []float64{d[0]}}}})
			if err == nil && rec.State != core.StateAccepted {
				err = fmt.Errorf("%s %s: %s", names[i], rec.State, rec.Error)
			}
			return err
		}); err != nil {
			return nil, err
		}
		forces := make([]float64, len(clients))
		if err := phase("site.execute", step, func(i int, c siteClient) error {
			rec, err := c.cl.Execute(ctx, names[i])
			if err == nil && rec.State != core.StateExecuted {
				err = fmt.Errorf("%s %s: %s", names[i], rec.State, rec.Error)
			}
			if err == nil {
				forces[i] = rec.Results[0].Forces[0]
			}
			return err
		}); err != nil {
			return nil, err
		}
		lastEnd = time.Now()
		total := 0.0
		for _, f := range forces {
			total += f
		}
		return []float64{total}, nil
	}
	_, err := structural.Run(sys, structural.NewExplicitNewmark(),
		structural.RunOptions{Dt: frame.Dt, Steps: steps, Ground: exp.Spec.Ground.At})
	if step != nil {
		step.endAt(time.Now())
	}
	if err != nil {
		return nil, fmt.Errorf("manual step loop: %w", err)
	}
	gaps := make([]float64, 0, len(stamps))
	for i := 1; i < len(stamps); i++ {
		gaps = append(gaps, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	return gaps, nil
}

// tracePass is the traced run: every layer probed alone, every workload run
// briefly under spans for its counters, and the most-lan manual step loop
// traced and untraced. proc.* describes the workload named by keep.
func tracePass(s *settings, keep string, out io.Writer) (map[string]float64, []check, error) {
	layer := make(map[string]float64)
	if err := probes(s, layer); err != nil {
		return nil, nil, err
	}
	var checks []check
	brief := *s
	brief.scale, brief.repeats, brief.setups = 0.3*s.scale, 2, 1
	for _, w := range workloads {
		res, err := w.run(&brief)
		if err != nil {
			return nil, nil, err
		}
		for name, v := range res.layer {
			// proc.* describes one workload: the one this pass was asked for.
			if !strings.HasPrefix(name, "proc.") || strings.HasPrefix(name, "proc.cpu_s_per_step.") || w.name == keep {
				layer[name] = v
			}
		}
		for _, c := range res.checks {
			c.Name = w.name + "/" + c.Name
			checks = append(checks, c)
		}
	}

	// The manual loop and the obs probes share one most-lan topology.
	steps := s.size(300, 30)
	spec, err := mostVariant{variant: most.VariantSimulation}.spec(s.seed, steps)
	if err != nil {
		return nil, nil, err
	}
	exp, err := most.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	defer exp.Stop()
	if err := probeObs(s, exp, layer); err != nil {
		return nil, nil, err
	}
	if _, err := manualLoop(exp, nil, "manual-warm", min(warmSteps, steps)); err != nil {
		return nil, nil, err
	}
	rate := func(gaps []float64) float64 {
		total := 0.0
		for _, g := range gaps {
			total += g
		}
		return float64(len(gaps)) / total
	}
	// Alternate the two so drift in the machine falls on both alike.
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		gaps, err := manualLoop(exp, nil, fmt.Sprintf("manual-plain-%d", i), steps)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, rate(gaps))
		if gaps, err = manualLoop(exp, s.tr, fmt.Sprintf("manual-traced-%d", i), steps); err != nil {
			return nil, nil, err
		}
		traced = append(traced, rate(gaps))
	}
	untraced := summarize(plain).Median
	layer["trace.overhead_share"] = (untraced - summarize(traced).Median) / untraced

	self := selfTimes(s.tr.snapshot())
	if st := self["step"]; st != nil {
		layer["coord.manual_step_self_s_p50"] = percentile(sorted(st.Self), 50)
	}
	layer["coord.step_overhead_s"] = layer["coord.step_s_p50.most-lan"] - layer["core.run_s_p50"]
	printBudget(out, layer)
	printSpans(out, self)
	return layer, checks, nil
}

// printBudget lays the most-lan step out layer by layer: calls per step ×
// the layer's probe median, summed and set against what was measured.
func printBudget(out io.Writer, layer map[string]float64) {
	envelopes := layer["coord.envelopes_per_step.most-lan"]
	type row struct {
		layer    string
		perStep  float64
		each     float64
		blocking float64 // of perStep, how many sit on the blocking path
	}
	// A classic step is two barriers; each waits for the slowest of three
	// concurrent envelopes, so one envelope per barrier blocks the step.
	rows := []row{
		{"structural (integrator)", 1, layer["structural.step_s_p50"], 1},
		{"gsi sign", 2 * envelopes, layer["gsi.sign_s_p50"], 4},
		{"gsi open (cached)", 2 * envelopes, layer["gsi.open_cached_s_p50"], 4},
		{"ogsi codec+http+dispatch", envelopes, layer["ogsi.call_residual_s"], 2},
		{"core client+server", envelopes / 2, layer["core.run_s_p50"] - 2*layer["ogsi.call_s_p50"], 1},
		{"plugin simulation", 2, layer["plugin.execute_s_p50.simulation"], 0},
		{"plugin mplugin", 1, layer["plugin.execute_s_p50.mplugin"], 1},
	}
	fmt.Fprintf(out, "\nstep budget, most-lan (probe medians; residuals are reported, not gated)\n")
	fmt.Fprintf(out, "  %-26s %9s %12s %12s %12s\n", "layer", "per step", "each s", "cpu s/step", "blocking s")
	var cpu, wall float64
	for _, r := range rows {
		cpu += r.perStep * r.each
		wall += r.blocking * r.each
		fmt.Fprintf(out, "  %-26s %9.2f %12.3g %12.3g %12.3g\n", r.layer, r.perStep, r.each, r.perStep*r.each, r.blocking*r.each)
	}
	measuredCPU, measuredWall := layer["proc.cpu_s_per_step.most-lan"], layer["coord.step_s_p50.most-lan"]
	layer["budget.cpu_residual_share"] = (measuredCPU - cpu) / measuredCPU
	layer["budget.wall_residual_share"] = (measuredWall - wall) / measuredWall
	fmt.Fprintf(out, "  %-26s %9s %12s %12.3g %12.3g\n", "sum", "", "", cpu, wall)
	fmt.Fprintf(out, "  %-26s %9s %12s %12.3g %12.3g\n", "measured", "", "", measuredCPU, measuredWall)
	// Three sites' work on fewer cores queues: the CPU sum spread over the
	// cores is a second floor under the step, beside the blocking path.
	fmt.Fprintf(out, "  %-26s %9s %12s %12s %12.3g\n", "cpu sum / GOMAXPROCS", "", "", "", cpu/float64(runtime.GOMAXPROCS(0)))
	fmt.Fprintf(out, "  %-26s %9s %12s %11.1f%% %11.1f%%\n", "residual (coord, contention)", "", "",
		100*layer["budget.cpu_residual_share"], 100*layer["budget.wall_residual_share"])

	// Which layer carries each step workload. One site's NTCP cycle (sign,
	// verify, codec, HTTP, dispatch, transaction) sits on the blocking path
	// and all three sites' cycles are the CPU; the back end is the slowest
	// site's plugin and rig; the wire is the injected delay.
	fmt.Fprintf(out, "\nwhere the step goes\n")
	fmt.Fprintf(out, "  %-14s %11s %11s | %-22s | %-10s | %-10s\n", "", "", "", "gsi+ogsi+core", "back end", "wire")
	fmt.Fprintf(out, "  %-14s %11s %11s | %10s %11s | %10s | %10s\n", "workload", "step_s_p50", "cpu s/step", "of step", "of cpu", "of step", "of step")
	slowRig := max(layer["plugin.execute_s_p50.shore-western"], layer["plugin.execute_s_p50.xpc"])
	for _, w := range []struct {
		name           string
		cycle, backend float64
	}{
		{"most-lan", layer["core.run_s_p50"], layer["plugin.execute_s_p50.mplugin"]},
		{"most-lan-fast", layer["core.run_fast_s_p50"], layer["plugin.execute_s_p50.mplugin"]},
		{"most-wan", layer["core.exec_propose_s_p50"], layer["plugin.execute_s_p50.mplugin"]},
		{"most-hybrid", layer["core.run_s_p50"], slowRig},
	} {
		step, cpu := layer["coord.step_s_p50."+w.name], layer["proc.cpu_s_per_step."+w.name]
		wire := 0.0
		if w.name == "most-wan" {
			wire = layer["faultnet.floor_share"]
		}
		fmt.Fprintf(out, "  %-14s %11.3g %11.3g | %9.1f%% %10.1f%% | %9.1f%% | %9.1f%%\n",
			w.name, step, cpu, 100*w.cycle/step, 100*3*w.cycle/cpu, 100*w.backend/step, 100*wire)
	}
}

// printSpans lists the benchmark-owned spans by name with their self time.
func printSpans(out io.Writer, self map[string]*selfTime) {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\nspans (benchmark-owned, around calls into each layer)\n")
	fmt.Fprintf(out, "  %-32s %8s %12s %12s\n", "span", "count", "total s", "self p50 s")
	for _, name := range names {
		st := self[name]
		fmt.Fprintf(out, "  %-32s %8d %12.4g %12.3g\n", name, st.Count, st.Total, percentile(sorted(st.Self), 50))
	}
}
