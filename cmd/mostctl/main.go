// Command mostctl runs the paper's experiments end-to-end in one process:
// it builds the requested topology (per-site containers, NTCP servers,
// plugins, rigs, DAQ, WAN fault injection), runs the MS-PSDS coordinator,
// and writes the response history, ground motion, per-site hysteresis
// series, and a run report — the artifacts behind DESIGN.md experiments
// E1, E2, E3, E5, E7, and E12.
//
// Examples:
//
//	mostctl -experiment dry-run                     # E1: completes 1500/1500
//	mostctl -experiment public-run                  # E2: aborts at 1493/1500
//	mostctl -experiment dry-run -variant hybrid     # E3: emulated rigs
//	mostctl -experiment minimost                    # E7
//	mostctl -experiment soil-structure              # E12
//	mostctl metrics -url http://127.0.0.1:8080      # inspect a live container
//	mostctl trace -url http://127.0.0.1:4455        # merged span timelines of live containers
//	mostctl top -url http://127.0.0.1:9090          # live cross-site dashboard
//	mostctl fleet -url http://127.0.0.1:9190 -list  # jobs on a running fleetd
//	mostctl chaos -scenario deploy/scenarios/step-1493.json  # E13: survive 1493
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM interrupt the stepping loop but still flush the response
// history, run report, archive ingestion and the <run>-spans.jsonl span
// snapshot before exiting 0; a run that dies on its own exits 2.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"neesgrid/internal/groundmotion"
	"neesgrid/internal/most"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		metricsCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		chaosCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		topCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		fleetCmd(os.Args[2:])
		return
	}
	os.Exit(runExperiment())
}

func runExperiment() int {
	experiment := flag.String("experiment", "dry-run",
		"dry-run|public-run|minimost|minimost-hw|soil-structure")
	variant := flag.String("variant", "simulation", "simulation|hybrid (MOST experiments)")
	steps := flag.Int("steps", 0, "override step count (0 = experiment default)")
	daqEvery := flag.Int("daq-every", 10, "DAQ scan interval in steps (0 = off)")
	out := flag.String("out", "out", "output directory")
	archiveDir := flag.String("archive", "", "archive DAQ blocks to a repository under this directory")
	spectrum := flag.Bool("spectrum", false, "also write the input motion's 5%-damped response spectrum")
	var debugFlags runtime.DebugFlags
	debugFlags.Register(nil)
	flag.Parse()

	var v most.Variant
	switch *variant {
	case "simulation":
		v = most.VariantSimulation
	case "hybrid":
		v = most.VariantHybrid
	default:
		return fatal("unknown -variant %q", *variant)
	}

	var spec most.Spec
	switch *experiment {
	case "dry-run":
		spec = most.DryRunSpec(v)
	case "public-run":
		spec = most.PublicRunSpec(v)
	case "minimost":
		spec = most.MiniMOSTSpec(false)
	case "minimost-hw":
		spec = most.MiniMOSTSpec(true)
	case "soil-structure":
		spec = most.SoilStructureSpec()
	default:
		return fatal("unknown -experiment %q", *experiment)
	}
	if *steps > 0 {
		spec.Steps = *steps
	}
	spec.DAQEvery = *daqEvery
	if *archiveDir != "" {
		if spec.DAQEvery <= 0 {
			return fatal("-archive requires -daq-every > 0")
		}
		spec.Archive = &most.ArchiveConfig{
			SpoolDir: filepath.Join(*archiveDir, "spool"),
			StoreDir: filepath.Join(*archiveDir, "store"),
		}
	}

	totalSteps := spec.Steps
	if totalSteps == 0 {
		totalSteps = spec.Frame.Steps
	}
	fmt.Printf("mostctl: %s (%s), %d steps x %g s, %d sites\n",
		*experiment, *variant, totalSteps, spec.Frame.Dt, len(spec.Sites))
	for _, s := range spec.Sites {
		fmt.Printf("  site %-8s backend=%-14s point=%-13s k=%.3g\n",
			s.Name, s.Kind, s.Point, s.K)
	}

	exp, err := most.Build(spec)
	if err != nil {
		return fatal("build: %v", err)
	}

	// The built topology joins a process supervisor so SIGINT/SIGTERM
	// drain it (and the -pprof debug server answers /healthz and /readyz
	// for it). The experiment is adopted already-running; its own
	// supervisor nests underneath.
	sup := runtime.NewSupervisor("mostctl")
	debugFlags.Install(sup, exp.Telemetry, exp.TraceRecorder)
	sup.Adopt("experiment", runtime.Funcs{
		StopFunc:    exp.Supervisor().Stop,
		HealthyFunc: exp.Healthy,
	}, runtime.WithDrain(exp.Supervisor().StopBudget()))

	return runtime.Main("mostctl", sup, func(ctx context.Context) error {
		start := time.Now()
		// A signal cancels ctx; the in-flight step errors out, Run still
		// drains the archive and writes <run>-spans.jsonl, and the output
		// flush below runs — an interrupted run keeps its artifacts.
		res, err := exp.Run(ctx)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}

		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("output dir: %w", err)
		}
		prefix := filepath.Join(*out, *experiment)
		if res.History != nil {
			writeCSV(prefix+"-history.csv", func(f *os.File) error {
				return res.History.WriteCSV(f)
			})
		}
		writeHysteresis(exp, prefix)
		writeReport(prefix+"-report.txt", *experiment, *variant, res, totalSteps)
		if *spectrum {
			writeSpectrum(prefix, spec)
		}

		fmt.Printf("mostctl: %d/%d steps in %s; recovered %d transient failures (%d injected, %d retries)\n",
			res.Report.StepsCompleted, totalSteps, time.Since(start).Round(time.Millisecond),
			res.Report.Recovered, res.InjectedFaults, res.Report.Retries)
		printRunTelemetry(exp, res)
		if res.History != nil {
			fmt.Printf("mostctl: peak drift %.4g m, peak force %.4g N, hysteretic energy %.4g J\n",
				res.History.PeakDisplacement(0), res.History.PeakForce(0),
				res.History.HystereticEnergy(0))
		}
		if *archiveDir != "" {
			if res.ArchiveErr != nil {
				fmt.Printf("mostctl: archive error: %v\n", res.ArchiveErr)
			} else {
				fmt.Printf("mostctl: archived %d data blocks (+metadata) under %s\n",
					exp.IngestedBlocks(), *archiveDir)
			}
		}
		if res.Err != nil {
			if ctx.Err() != nil {
				// Signal-initiated: artifacts are flushed, exit clean.
				fmt.Printf("mostctl: run interrupted at step %d, outputs flushed\n",
					res.Report.FailedStep)
				return nil
			}
			return runtime.Exitf(2, "run terminated prematurely at step %d: %v",
				res.Report.FailedStep, res.Err)
		}
		fmt.Println("mostctl: run completed successfully")
		return nil
	})
}

func writeCSV(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mostctl: %v\n", err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "mostctl: write %s: %v\n", path, err)
		return
	}
	fmt.Printf("mostctl: wrote %s\n", path)
}

// writeHysteresis emits per-site force-displacement series from the viewer
// (the Fig. 8 hysteresis plots).
func writeHysteresis(exp *most.Experiment, prefix string) {
	for _, site := range exp.Sites {
		name := site.Spec.Name
		xs, ys := exp.Viewer.XY(name+".disp", name+".force")
		if len(xs) == 0 {
			continue
		}
		writeCSV(fmt.Sprintf("%s-%s-hysteresis.csv", prefix, name), func(f *os.File) error {
			w := csv.NewWriter(f)
			if err := w.Write([]string{"disp", "force"}); err != nil {
				return err
			}
			for i := range xs {
				if err := w.Write([]string{
					strconv.FormatFloat(xs[i], 'g', -1, 64),
					strconv.FormatFloat(ys[i], 'g', -1, 64),
				}); err != nil {
					return err
				}
			}
			w.Flush()
			return w.Error()
		})
	}
}

func writeReport(path, experiment, variant string, res *most.Results, totalSteps int) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mostctl: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "experiment: %s (%s)\n", experiment, variant)
	fmt.Fprintf(f, "steps completed: %d / %d\n", res.Report.StepsCompleted, totalSteps)
	fmt.Fprintf(f, "completed: %v\n", res.Report.Completed)
	if res.Report.FailedStep > 0 {
		fmt.Fprintf(f, "failed at step: %d\nerror: %v\n", res.Report.FailedStep, res.Report.Err)
	}
	fmt.Fprintf(f, "elapsed: %s\n", res.Report.Elapsed)
	fmt.Fprintf(f, "transient failures recovered: %d\n", res.Report.Recovered)
	fmt.Fprintf(f, "retries: %d\n", res.Report.Retries)
	fmt.Fprintf(f, "faults injected: %d\n", res.InjectedFaults)
	fmt.Fprintf(f, "daq scans: %d\n", res.DAQScans)
	if res.History != nil {
		fmt.Fprintf(f, "peak drift (m): %g\n", res.History.PeakDisplacement(0))
		fmt.Fprintf(f, "peak force (N): %g\n", res.History.PeakForce(0))
		fmt.Fprintf(f, "hysteretic energy (J): %g\n", res.History.HystereticEnergy(0))
	}
	fmt.Printf("mostctl: wrote %s\n", path)
}

// writeSpectrum regenerates the input motion and writes its 5%-damped
// displacement/pseudo-acceleration response spectrum — the engineering
// summary of what the experiment's structures were subjected to.
func writeSpectrum(prefix string, spec most.Spec) {
	cfg := groundmotion.ElCentroLike()
	cfg.Dt = spec.Frame.Dt
	steps := spec.Steps
	if steps <= 0 {
		steps = spec.Frame.Steps
	}
	cfg.Duration = float64(steps) * spec.Frame.Dt
	rec, err := groundmotion.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mostctl: spectrum: %v\n", err)
		return
	}
	periods := groundmotion.LinSpace(0.1, 2.0, 39)
	s, err := groundmotion.ResponseSpectrum(rec, 0.05, periods)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mostctl: spectrum: %v\n", err)
		return
	}
	writeCSV(prefix+"-spectrum.csv", func(f *os.File) error {
		w := csv.NewWriter(f)
		if err := w.Write([]string{"period", "sd", "sv", "sa"}); err != nil {
			return err
		}
		for i, p := range s.Periods {
			if err := w.Write([]string{
				strconv.FormatFloat(p, 'g', -1, 64),
				strconv.FormatFloat(s.Sd[i], 'g', -1, 64),
				strconv.FormatFloat(s.Sv[i], 'g', -1, 64),
				strconv.FormatFloat(s.Sa[i], 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})
	fmt.Printf("mostctl: predominant period %.2f s (frame period %.2f s)\n",
		s.PeakPeriod(), spec.Frame.Period())
}

// printRunTelemetry summarizes the run's latency picture: per-step
// wall-clock, NTCP round-trip (the coordinator-side registry), and per-op
// request counts from each site's server registry.
func printRunTelemetry(exp *most.Experiment, res *most.Results) {
	sl := res.Report.StepLatency
	if sl.Count > 0 {
		fmt.Printf("mostctl: step latency  p50=%s p95=%s p99=%s (n=%d)\n",
			seconds(sl.P50), seconds(sl.P95), seconds(sl.P99), sl.Count)
	}
	// ntcp.client.rtt.seconds observes successful calls only; failed
	// attempts (timeouts, injected faults) land in failed_rtt so WAN
	// outages cannot skew the latency percentiles.
	if rtt, ok := res.Report.Telemetry.Histograms["ntcp.client.rtt.seconds"]; ok && rtt.Count > 0 {
		fmt.Printf("mostctl: NTCP rtt      p50=%s p95=%s p99=%s (n=%d)\n",
			seconds(rtt.P50), seconds(rtt.P95), seconds(rtt.P99), rtt.Count)
	}
	if frtt, ok := res.Report.Telemetry.Histograms["ntcp.client.failed_rtt.seconds"]; ok && frtt.Count > 0 {
		fmt.Printf("mostctl: NTCP failed rtt p50=%s p95=%s p99=%s (n=%d)\n",
			seconds(frtt.P50), seconds(frtt.P95), seconds(frtt.P99), frtt.Count)
	}
	for _, site := range exp.Sites {
		snap := site.Telemetry.Snapshot()
		fmt.Printf("mostctl: site %-8s proposed=%d executed=%d failed=%d cancelled=%d deduped=%d\n",
			site.Spec.Name,
			snap.Counters["ntcp.server.proposed"],
			snap.Counters["ntcp.server.executed"],
			snap.Counters["ntcp.server.failed"],
			snap.Counters["ntcp.server.cancelled"],
			snap.Counters["ntcp.server.deduped_replays"])
	}
}

// metricsCmd fetches and pretty-prints a remote container's /metrics
// snapshot — the operational view of a live site, no run required.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	url := fs.String("url", "", "container base URL (e.g. http://127.0.0.1:8080)")
	events := fs.Int("events", 10, "number of recent events to show (0 = none)")
	raw := fs.Bool("json", false, "dump the raw JSON snapshot instead")
	_ = fs.Parse(args)
	if *url == "" {
		fatalExit("metrics: -url required")
	}

	resp, err := http.Get(*url + "/metrics")
	if err != nil {
		fatalExit("metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalExit("metrics: %s returned %s", *url, resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		fatalExit("metrics: decode: %v", err)
	}
	if *raw {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
		return
	}

	if len(snap.Counters) > 0 {
		fmt.Println("counters:")
		for _, name := range snap.CounterNames() {
			fmt.Printf("  %-45s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Println("gauges:")
		names := make([]string, 0, len(snap.Gauges))
		for n := range snap.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-45s %g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Println("histograms:")
		for _, name := range snap.HistogramNames() {
			h := snap.Histograms[name]
			fmt.Printf("  %-45s n=%-6d mean=%-9s p50=%-9s p95=%-9s p99=%s\n",
				name, h.Count, seconds(h.Mean), seconds(h.P50), seconds(h.P95), seconds(h.P99))
		}
	}
	if *events > 0 && len(snap.Events) > 0 {
		fmt.Println("events:")
		evs := snap.Events
		if len(evs) > *events {
			evs = evs[len(evs)-*events:]
		}
		for _, e := range evs {
			line := fmt.Sprintf("  %s %s/%s", e.TS.Format(time.RFC3339), e.Component, e.Event)
			if len(e.Fields) > 0 {
				if b, err := json.Marshal(e.Fields); err == nil {
					line += " " + string(b)
				}
			}
			fmt.Println(line)
		}
	}
}

// seconds renders a histogram value recorded in seconds as a duration.
func seconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// fatal prints a mostctl-prefixed error. In the experiment path it is
// returned as the exit code; the subcommands exit through fatalExit.
func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "mostctl: "+format+"\n", args...)
	return 1
}

func fatalExit(format string, args ...any) {
	fatal(format, args...)
	os.Exit(1)
}
