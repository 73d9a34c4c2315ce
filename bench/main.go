// Command bench is the repository's benchmark: eight workloads over the MOST
// step path, the NSDS fan-out, the fleet scheduler and repository ingest,
// each reduced to the same five end-to-end metrics, plus a traced pass that
// prices every layer alone and lays out the most-lan step budget. README.md
// has the glossary; ../BENCHMARK.json is the contract the driver reads.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"

	"neesgrid/internal/most"
)

// workloads is the benchmark's fixed set. op is the operation each one's
// five metrics count; tail is the percentile op_s_tail reads.
var workloads = []workload{
	{name: "most-lan", op: "step", tail: 95,
		build: mostVariant{name: "most-lan", steps: 500, variant: most.VariantSimulation}.build,
		why:   "the paper's three-site run with the wire removed: per-envelope sign/verify, codec, HTTP and dispatch do almost all the work"},
	{name: "most-lan-fast", op: "step", tail: 95,
		build: mostVariant{name: "most-lan-fast", steps: 500, variant: most.VariantSimulation, fastPath: true}.build,
		why:   "same layers, one envelope per site per step and no accept barrier: a gain for the classic path that costs the single-op path shows"},
	{name: "most-wan", op: "step", tail: 95, asMeasured: true,
		build: mostVariant{name: "most-wan", steps: 200, variant: most.VariantSimulation, wan: true}.build,
		why:   "5 ms injected one-way delay, pipelined: wire-bound, so only envelopes per step and prediction hits move wall time; CPU layers move cpu_s_per_op only"},
	{name: "most-hybrid", op: "step", tail: 95, asMeasured: true,
		build: mostVariant{name: "most-hybrid", steps: 200, variant: most.VariantHybrid}.build,
		why:   "the paper's physical configuration (Shore-Western rig, Mplugin, xPC target): plugin poll loops and rig emulation dominate, protocol layers do little"},
	// One P: with two, which of them picks up each of the pipeline's five
	// goroutines decides a scan's latency, and the median does not repeat.
	// p90: the slowest 2–3 % of scans are the ones the speedometer's kernel
	// or a GC cycle interrupts, and on a bad day that knee reaches p95.
	{name: "stream-fanout", op: "scan", tail: 90, procs: 1, build: buildStream,
		why: "DAQ scan to remote viewer through hub, TCP relay and SSE gateway with 1000 subscribers; the step path is idle, so nsds and daq show here and nowhere else"},
	{name: "fleet-3x", op: "job", tail: 75, build: buildFleet,
		why: "two coordinators share sites, trust store and cores at 3x oversubscription: per-job credential, BuildShared, roll-up and scheduler fairness show here only"},
	{name: "repo-ingest", op: "block", tail: 95, build: buildIngest,
		why: "small spool blocks archived while scanning, then fetched back: per-file catalogue and GridFTP control-channel cost, writes beside reads"},
	{name: "repo-bulk", op: "file", tail: 90, build: buildBulk,
		why: "16 MiB files ingested over GridFTP and fetched back: bytes per second, where a write-side gain that costs reads shows"},
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees, in the workload's own
// operation. A bound is the share of the parent's median a metric may worsen
// by before it counts as a regression. The driver refuses a benchmark whose
// own run-to-run spread exceeds a bound, one bound serves all eight workloads,
// and on the reference box the widest spreads are 15–20 % (README.md,
// "Recorded baseline"): that, not the issue's 10–20 %, decides them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"op_s_tail", "s", "lower", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// outcome is one workload's run reduced for reporting.
type outcome struct {
	Workload  string               `json:"workload"`
	Op        string               `json:"op"`
	Procs     int                  `json:"gomaxprocs"`
	Metrics   map[string]summary   `json:"metrics"`
	Values    map[string][]float64 `json:"values"`
	TailP     float64              `json:"tail_percentile"`
	TailN     int                  `json:"tail_samples"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Checks    []check              `json:"checks"`
	Layer     map[string]float64   `json:"layer,omitempty"`
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return o.Failed == 0
}

// reduce turns repeats into the five metrics: the median over repeats of
// each per-repeat statistic. The tail is read per repeat too when every
// repeat leaves ten samples beyond the workload's tail percentile, so that a
// disturbed second spoils one repeat and not the figure; a workload with few
// operations (jobs, bulk files) pools its latencies instead.
func (w workload) reduce(res *result) *outcome {
	o := &outcome{Workload: w.name, Op: w.op, Procs: cmp.Or(w.procs, runtime.GOMAXPROCS(0)), Checks: res.checks, Layer: res.layer,
		Values: map[string][]float64{"setup_s": res.setup}, Metrics: make(map[string]summary)}
	var pooled []float64
	perRepeat := true
	for _, rep := range res.repeats {
		o.Attempted += rep.ops
		o.Failed += rep.failed
		pooled = append(pooled, rep.lat...)
		perRepeat = perRepeat && tailPercentile(len(rep.lat), w.tail) == w.tail
	}
	o.TailP, o.TailN = w.tail, len(pooled)
	if !perRepeat {
		o.TailP = tailPercentile(len(pooled), w.tail)
		o.Values["op_s_tail"] = []float64{percentile(sorted(pooled), o.TailP)}
	}
	for _, rep := range res.repeats {
		lat := sorted(rep.lat)
		o.Values["ops_per_s"] = append(o.Values["ops_per_s"], rep.opsPerS)
		o.Values["op_s_p50"] = append(o.Values["op_s_p50"], percentile(lat, 50))
		o.Values["cpu_s_per_op"] = append(o.Values["cpu_s_per_op"], rep.cpuPerOp)
		o.Values["machine_pace"] = append(o.Values["machine_pace"], rep.speed)
		if perRepeat {
			o.Values["op_s_tail"] = append(o.Values["op_s_tail"], percentile(lat, w.tail))
		}
	}
	for name, values := range o.Values {
		o.Metrics[name] = summarize(values)
	}
	return o
}

// print writes the human-readable table.
func (o *outcome) print(out io.Writer, why string) {
	fmt.Fprintf(out, "\nworkload %s (operation: %s, GOMAXPROCS %d)\n  %s\n", o.Workload, o.Op, o.Procs, why)
	for _, def := range endToEnd {
		m := o.Metrics[def.Name]
		note := fmt.Sprintf("n=%d repeats", m.N)
		switch def.Name {
		case "op_s_tail":
			note = fmt.Sprintf("p%g, %d samples", o.TailP, o.TailN)
			if m.N > 1 {
				note += fmt.Sprintf(", n=%d repeats", m.N)
			} else {
				note += ", pooled"
			}
		case "setup_s":
			note = fmt.Sprintf("n=%d set-ups", m.N)
		}
		fmt.Fprintf(out, "  %-13s %12.6g %-4s q1 %-12.6g q3 %-12.6g %s\n", def.Name, m.Median, def.Unit, m.Q1, m.Q3, note)
	}
	pace := o.Metrics["machine_pace"]
	fmt.Fprintf(out, "  machine pace %.3f (q1 %.3f q3 %.3f; 1 = the %g s reference kernel): compute-bound figures are divided by it, the others are as measured\n",
		pace.Median, pace.Q1, pace.Q3, kernelRef)
	fmt.Fprintf(out, "  failed %d of %d %ss (failed_share %g)\n", o.Failed, o.Attempted, o.Op,
		float64(o.Failed)/float64(max(o.Attempted, 1)))
	bad := 0
	for _, c := range o.Checks {
		if !c.OK {
			bad++
			fmt.Fprintf(out, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(out, "  checks: %d of %d passed\n", len(o.Checks)-bad, len(o.Checks))
}

// contractLine is the driver's result object: the last line of stdout.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine records where and how the numbers were taken.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

func thisMachine() machine {
	m := machine{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown", Transport: "loopback"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if match := regexp.MustCompile(`model name\s*:\s*(.+)`).FindSubmatch(data); match != nil {
			m.CPU = string(match[1])
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				m.Commit = kv.Value
			}
		}
		for _, kv := range info.Settings {
			if kv.Key == "vcs.modified" && kv.Value == "true" {
				m.Commit += "+modified"
			}
		}
	}
	return m
}

// document is one invocation's full record: what -out appends and -compare reads.
type document struct {
	Machine   machine            `json:"machine"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads []*outcome         `json:"workloads,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// fail reports an error that stopped the run.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all of them)")
	seed := fs.Int64("seed", 1940, "seed of the generated inputs: ground motion, DAQ noise, tenant order, file contents")
	seconds := fs.Float64("seconds", 10, "time box of each workload's timed region")
	repeats := fs.Int("repeats", 0, "run exactly this many repeats per workload instead of a time box")
	trace := fs.Int("trace", 0, "1: the traced pass (per-layer probes, spans, step budget) instead of the end-to-end pass")
	outPath := fs.String("out", "", "append this invocation's full JSON record to this file; spans go beside it")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments and print a verdict per workload and metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(out, fs.Arg(0), fs.Arg(1))
	}
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "bench: refusing to time a -race build")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	tmp, err := os.MkdirTemp("", "neesbench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	s := &settings{seed: *seed, seconds: *seconds, repeats: *repeats, scale: 1, tmp: tmp}
	if *trace == 0 {
		// Per-layer figures are as measured, with machine.kernel_s_p50 beside them.
		if s.meter, err = startSpeedometer(); err != nil {
			return fail(err)
		}
		defer s.meter.stop()
	}
	doc := &document{Machine: thisMachine(), Seed: *seed, Seconds: *seconds, Traced: *trace != 0}
	fmt.Fprintf(out, "# bench: go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d transport=%s (in-process sites over loopback sockets; files stay in the page cache)\n",
		doc.Machine.Go, doc.Machine.GOMAXPROCS, doc.Machine.NProc, doc.Machine.CPU, doc.Machine.Commit, *seed, doc.Machine.Transport)

	line := contractLine{Correct: true, Metrics: make(map[string]metricValue)}
	if *trace != 0 {
		s.tr = newTracer()
		keep := chosen[0].name
		layer, checks, err := tracePass(s, keep, out)
		if err != nil {
			return fail(err)
		}
		doc.Layer = layer
		fmt.Fprintf(out, "\nper-layer metrics (proc.* describes %s)\n", keep)
		for _, def := range perLayer {
			v, ok := layer[def.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fail(fmt.Errorf("per-layer metric %s was not measured", def.Name))
			}
			fmt.Fprintf(out, "  %-42s %14.6g %s\n", def.Name, v, def.Unit)
			line.Metrics[def.Name] = metricValue{v, def.Unit}
		}
		line.Attempted = len(checks)
		for _, c := range checks {
			if !c.OK {
				line.Failed++
				fmt.Fprintf(out, "CHECK FAILED %s: %s\n", c.Name, c.Detail)
			}
		}
		line.Correct = line.Failed == 0
		if late := layer["gen.late_s_p99"]; late > 1e-3 {
			fmt.Fprintf(out, "# warning: the open-loop generator ran %.3g s late at p99; stream-fanout phase A is skewed by it\n", late)
		}
		spans := filepath.Join(os.TempDir(), fmt.Sprintf("bench-spans-%d.json", os.Getpid()))
		if *outPath != "" {
			spans = strings.TrimSuffix(*outPath, filepath.Ext(*outPath)) + ".spans.json"
		}
		if err := s.tr.write(spans); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(s.tr.snapshot()), spans)
	} else {
		for _, w := range chosen {
			res, err := w.run(s)
			if err != nil {
				return fail(err)
			}
			o := w.reduce(res)
			o.print(out, w.why)
			doc.Workloads = append(doc.Workloads, o)
			line.Correct = line.Correct && o.correct()
			line.Attempted += o.Attempted
			line.Failed += o.Failed
			for _, def := range endToEnd {
				line.Metrics[def.Name] = metricValue{o.Metrics[def.Name].Median, def.Unit}
			}
		}
	}
	if *outPath != "" {
		if err := appendJSON(*outPath, doc); err != nil {
			return fail(err)
		}
	}
	// With every workload run at once the line carries the last one's
	// metrics; the driver always names one.
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(out, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// appendJSON adds one JSON line to path, so repeated invocations build a set.
func appendJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
