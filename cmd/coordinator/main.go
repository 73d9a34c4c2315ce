// Command coordinator runs the MS-PSDS simulation coordinator against
// remote ntcpd sites (paper Fig. 5): it reads an experiment description,
// drives the pseudo-dynamic loop over NTCP, and writes the response history
// and run report.
//
// Example:
//
//	coordinator -config most.json \
//	            -ca-cert certs/ca.cert -cred certs/coordinator.cred \
//	            -out out/
//
// with most.json:
//
//	{
//	  "name": "most",
//	  "mass": 20000, "damping": 0.02, "dt": 0.01, "steps": 1500,
//	  "ground": {"pga_g": 0.4, "seed": 1940},
//	  "retry": {"attempts": 5, "backoff_ms": 50},
//	  "sites": [
//	    {"name": "uiuc", "addr": "127.0.0.1:4455", "point": "left-column", "k": 7.7e5},
//	    {"name": "ncsa", "addr": "127.0.0.1:4456", "point": "middle-frame", "k": 2.0e6},
//	    {"name": "cu",   "addr": "127.0.0.1:4457", "point": "right-column", "k": 7.7e5}
//	  ]
//	}
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM interrupt the stepping loop but still flush the partial
// response history, ground record and run report before exiting 0; a run
// that dies on its own exits 2.
//
// With -checkpoint the coordinator journals an atomic per-step snapshot;
// a crashed coordinator restarted with -resume picks the run up from the
// snapshot, relying on NTCP's named-transaction dedupe to replay any step
// the sites already executed.
//
// With -obs the coordinator serves a cross-site observability aggregator:
// every site's /metrics endpoint is scraped alongside the coordinator's own
// registry, merged into exact fleet-wide quantiles, and exposed at /fleet
// (for `mostctl top`), /metrics (JSON or Prometheus) and /slo. Rules given
// via -slo are evaluated continuously; a breach latches into the verdict,
// is written to <out>/<name>-metrics.json, and makes the run exit 3 even
// when the stepping loop itself succeeded.
//
// The config becomes a most.Spec that most.Connect wires to the sites: the
// run is the in-process harness's, model, ground, clients and obs alike.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/core"
	"neesgrid/internal/groundmotion"
	"neesgrid/internal/gsi"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/runtime"
	"neesgrid/internal/structural"
)

type groundConfig struct {
	PGAg float64 `json:"pga_g"`
	Seed int64   `json:"seed"`
	// File overrides synthesis with a t,ag CSV record.
	File string `json:"file,omitempty"`
}

type retryConfig struct {
	Attempts  int `json:"attempts"`
	BackoffMs int `json:"backoff_ms"`
}

type siteConfig struct {
	Name  string  `json:"name"`
	Addr  string  `json:"addr"`
	Point string  `json:"point"`
	K     float64 `json:"k"`
}

type experimentConfig struct {
	Name    string       `json:"name"`
	Mass    float64      `json:"mass"`
	Damping float64      `json:"damping"`
	Dt      float64      `json:"dt"`
	Steps   int          `json:"steps"`
	Ground  groundConfig `json:"ground"`
	Retry   retryConfig  `json:"retry"`
	Sites   []siteConfig `json:"sites"`
}

func main() { os.Exit(run()) }

func run() int {
	configPath := flag.String("config", "", "experiment JSON (required)")
	caCert := flag.String("ca-cert", "certs/ca.cert", "trusted CA certificate")
	credPath := flag.String("cred", "", "coordinator credential")
	out := flag.String("out", "out", "output directory")
	ckptPath := flag.String("checkpoint", "", "append an fsync'd checkpoint per step to this log (a fresh run replaces it, -resume appends)")
	ckptEvery := flag.Int("checkpoint-every", 1, "checkpoint cadence in steps")
	resume := flag.Bool("resume", false, "resume from the last checkpoint in the -checkpoint log instead of starting from rest")
	obsAddr := flag.String("obs", "", "serve the cross-site obs aggregator (/fleet /metrics /slo) on this address")
	sloPath := flag.String("slo", "", "SLO rules JSON; breaches latch into the run verdict and exit code 3")
	var debugFlags runtime.DebugFlags
	debugFlags.Register(nil)
	flag.Parse()
	if *configPath == "" || *credPath == "" {
		return fatal("need -config and -cred")
	}

	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return fatal("read config: %v", err)
	}
	var cfg experimentConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fatal("parse config: %v", err)
	}
	if len(cfg.Sites) == 0 || cfg.Mass <= 0 || cfg.Dt <= 0 || cfg.Steps <= 0 {
		return fatal("config needs sites, mass, dt, steps")
	}

	cert, err := gsi.LoadCertificate(*caCert)
	if err != nil {
		return fatal("load CA cert: %v", err)
	}
	cred, err := gsi.LoadCredential(*credPath)
	if err != nil {
		return fatal("load credential: %v", err)
	}
	trust := gsi.NewTrustStore(cert)

	retry := core.DefaultRetry
	if cfg.Retry.Attempts > 0 {
		retry = core.RetryPolicy{
			Attempts:   cfg.Retry.Attempts,
			Backoff:    time.Duration(cfg.Retry.BackoffMs) * time.Millisecond,
			MaxBackoff: 2 * time.Second,
		}
	}
	ground, err := loadGround(cfg)
	if err != nil {
		return fatal("%v", err)
	}
	// One lumped story: the frame's stiffness is the sites' sum.
	totalK := 0.0
	sites := make([]most.SiteSpec, len(cfg.Sites))
	addrs := make([]string, len(cfg.Sites))
	for i, s := range cfg.Sites {
		totalK += s.K
		sites[i] = most.SiteSpec{Name: s.Name, Point: s.Point, K: s.K}
		addrs[i] = s.Addr
	}
	spec := most.Spec{
		Name: cfg.Name,
		Frame: structural.FrameConfig{
			Mass: cfg.Mass, LeftK: totalK, DampingRatio: cfg.Damping, Dt: cfg.Dt,
		},
		Steps:  cfg.Steps,
		Ground: ground,
		Retry:  retry,
		Sites:  sites,
	}
	if *sloPath != "" {
		if spec.SLOs, err = obs.LoadSLOFile(*sloPath); err != nil {
			return fatal("slo: %v", err)
		}
	}
	if *ckptPath != "" {
		spec.Checkpoint = &coord.CheckpointConfig{Path: *ckptPath, Every: *ckptEvery}
	}
	if *resume {
		if *ckptPath == "" {
			return fatal("-resume requires -checkpoint")
		}
		cp, err := coord.LoadCheckpoint(*ckptPath)
		if err != nil {
			return fatal("resume: %v", err)
		}
		spec.Resume = cp
		fmt.Printf("coordinator: resuming %q from checkpoint at step %d\n", cp.RunID, cp.Step)
	}

	// An SLO breach captures goroutine profiles into -out from the -pprof
	// debug mux, at the address it bound (so -pprof 127.0.0.1:0 works too).
	var ds *runtime.HTTPServer
	var pprofURL func() string
	if debugFlags.Addr != "" {
		pprofURL = func() string { return "http://" + ds.Addr() }
	}
	exp, err := most.Connect(spec, cred, trust, addrs, *out, pprofURL)
	if err != nil {
		return fatal("%v", err)
	}
	// The step root spans and per-site client spans share the experiment's
	// recorder, served at -pprof's /trace.
	sup := runtime.NewSupervisor("coordinator")
	ds = debugFlags.Install(sup, exp.Telemetry, exp.TraceRecorder)
	agg := exp.Obs()
	sup.Add("obs-aggregator", agg)
	var api *runtime.HTTPServer
	if *obsAddr != "" {
		api = runtime.NewHTTPServer(runtime.Env{}, *obsAddr, agg.Mux())
		sup.Add("obs-http", api)
	}
	// The banner starts last, so it prints the addresses the servers bound.
	sup.Add("banner", runtime.Funcs{StartFunc: func(context.Context) error {
		if api != nil {
			fmt.Printf("coordinator: obs aggregator at http://%s (endpoints: /fleet /metrics /slo /series)\n", api.Addr())
		}
		return nil
	}})

	// The stepping loop is the foreground job: a SIGINT/SIGTERM cancels
	// ctx, the in-flight step errors out, and the flush below still runs —
	// an interrupted run keeps its partial history and report.
	return runtime.Main("coordinator", sup, func(ctx context.Context) error {
		fmt.Printf("coordinator: running %q: %d steps x %g s over %d sites\n",
			cfg.Name, cfg.Steps, cfg.Dt, len(sites))
		res, err := exp.Run(ctx)
		if err != nil {
			return err
		}
		hist, report, runErr := res.History, res.Report, res.Err

		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("output dir: %w", err)
		}
		outErr := writeOutputs(*out, cfg.Name, hist, ground)

		fmt.Printf("coordinator: completed %d/%d steps in %s (recovered %d transient failures, %d retries)\n",
			report.StepsCompleted, cfg.Steps, report.Elapsed.Round(time.Millisecond),
			report.Recovered, report.Retries)
		if report.Checkpoints > 0 || report.ResumedFrom >= 0 {
			from := "from rest"
			if report.ResumedFrom >= 0 {
				from = fmt.Sprintf("resumed from step %d", report.ResumedFrom)
			}
			fmt.Printf("coordinator: wrote %d checkpoints (%s)\n", report.Checkpoints, from)
		}
		if sl := report.StepLatency; sl.Count > 0 {
			fmt.Printf("coordinator: step latency p50=%s p95=%s p99=%s\n",
				seconds(sl.P50), seconds(sl.P95), seconds(sl.P99))
		}
		// Successful calls only — failed attempts are kept apart in
		// ntcp.client.failed_rtt.seconds so they cannot skew the percentiles.
		if rtt, ok := report.Telemetry.Histograms["ntcp.client.rtt.seconds"]; ok && rtt.Count > 0 {
			fmt.Printf("coordinator: NTCP rtt p50=%s p95=%s p99=%s over %d calls\n",
				seconds(rtt.P50), seconds(rtt.P95), seconds(rtt.P99), rtt.Count)
		}
		if frtt, ok := report.Telemetry.Histograms["ntcp.client.failed_rtt.seconds"]; ok && frtt.Count > 0 {
			fmt.Printf("coordinator: NTCP failed rtt p50=%s p95=%s p99=%s over %d calls\n",
				seconds(frtt.P50), seconds(frtt.P95), seconds(frtt.P99), frtt.Count)
		}
		// Final scrape so the archived roll-up (and the SLO gate below)
		// reflect the finished run, then persist the machine-readable
		// fleet view + verdict beside the response history.
		scrapeCtx, cancelScrape := context.WithTimeout(context.Background(), 10*time.Second)
		agg.ScrapeOnce(scrapeCtx)
		cancelScrape()
		rollup := agg.Rollup(cfg.Name)
		rollupPath := filepath.Join(*out, cfg.Name+"-metrics.json")
		if err := rollup.WriteFile(rollupPath); err != nil {
			outErr = errors.Join(outErr, err)
		} else {
			fmt.Printf("coordinator: wrote %s\n", rollupPath)
		}
		if outErr != nil {
			// A run whose results never reached disk failed, whatever
			// its steps did.
			return errors.Join(fmt.Errorf("outputs: %w", outErr), runErr)
		}
		if runErr != nil {
			if ctx.Err() != nil {
				// Signal-initiated: outputs are flushed, exit clean.
				fmt.Printf("coordinator: run interrupted at step %d, outputs flushed\n",
					report.FailedStep)
				return nil
			}
			return runtime.Exitf(2, "run terminated prematurely at step %d: %v",
				report.FailedStep, runErr)
		}
		// SLO gate: a run that finished but latched a breach exits 3 —
		// CI treats it as a performance regression, not a crash.
		if !rollup.Verdict.OK {
			for _, r := range rollup.Verdict.Rules {
				if r.Breaches > 0 {
					fmt.Fprintf(os.Stderr, "coordinator: SLO %s breached %d times (worst %.4g > max %.4g)\n",
						r.Name, r.Breaches, r.Worst, r.Max)
				}
			}
			return runtime.Exitf(3, "run completed but breached its SLOs")
		}
		return nil
	})
}

// seconds renders a histogram value recorded in seconds as a duration.
func seconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// loadGround reads the config's ground file, resampled to its dt, or
// synthesizes the record the way an in-process run does.
func loadGround(cfg experimentConfig) (*groundmotion.Record, error) {
	if cfg.Ground.File == "" {
		return most.ElCentroGround(cfg.Dt, cfg.Steps, cfg.Ground.PGAg, cfg.Ground.Seed)
	}
	f, err := os.Open(cfg.Ground.File)
	if err != nil {
		return nil, fmt.Errorf("ground motion file: %w", err)
	}
	defer f.Close()
	rec, err := groundmotion.ReadCSV(f, cfg.Ground.File)
	if err != nil {
		return nil, err
	}
	return rec.Resample(cfg.Dt)
}

// writeOutputs writes the response history and the ground record as CSV
// files in dir. An error names the file that could not be written.
func writeOutputs(dir, name string, hist *structural.History, ground *groundmotion.Record) error {
	if hist != nil {
		path := filepath.Join(dir, name+"-history.csv")
		if err := writeCSV(path, hist.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("coordinator: wrote %s\n", path)
	}
	if ground != nil {
		return writeCSV(filepath.Join(dir, name+"-ground.csv"), ground.WriteCSV)
	}
	return nil
}

// writeCSV creates path and fills it with write.
func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "coordinator: "+format+"\n", args...)
	return 1
}
