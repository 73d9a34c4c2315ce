package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"neesgrid/internal/fleet"
	"neesgrid/internal/obs"
	"neesgrid/internal/telemetry"
)

// fleetCmd drives a fleetd scheduler: submit, list, inspect and cancel
// jobs against a running daemon (-url), or run the self-checking fleet
// smoke (-run) — six experiments from two tenants over a two-slot pool,
// asserting oversubscription queues fairly, every job completes, and the
// fleet roll-up arrives over the real push path.
func fleetCmd(args []string) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	run := fs.Bool("run", false, "run the in-process fleet scheduling smoke")
	steps := fs.Int("steps", 40, "integration steps per smoke job")
	listen := fs.String("listen", "127.0.0.1:0", "fleet aggregator listen address for -run")
	store := fs.String("store", "", "store root for -run (default: a temp dir)")
	urlFlag := fs.String("url", "", "fleetd base URL for the client verbs")
	submit := fs.Bool("submit", false, "submit a job (-tenant, -name, -slots, -job-steps)")
	tenant := fs.String("tenant", "", "tenant for -submit")
	name := fs.String("name", "job", "run name for -submit")
	slots := fs.Int("slots", 1, "site slots for -submit")
	jobSteps := fs.Int("job-steps", 200, "integration steps for -submit")
	list := fs.Bool("list", false, "list jobs")
	status := fs.String("status", "", "show one job by ID")
	cancel := fs.String("cancel", "", "cancel a job by ID")
	_ = fs.Parse(args)

	if *run {
		runFleetSmoke(*steps, *listen, *store)
		return
	}
	if *urlFlag == "" {
		fatalExit("fleet: need -run or -url")
	}
	base := strings.TrimRight(*urlFlag, "/")
	switch {
	case *submit:
		if *tenant == "" {
			fatalExit("fleet: -submit needs -tenant")
		}
		var view fleet.JobView
		err := postJSON(base+"/submit", fleet.Request{
			Tenant: *tenant, Name: *name, Slots: *slots, Steps: *jobSteps,
		}, &view)
		if err != nil {
			fatalExit("fleet: submit: %v", err)
		}
		fmt.Printf("mostctl: submitted %s (tenant %s, %d slots, %d steps)\n",
			view.ID, view.Tenant, view.Slots, *jobSteps)
	case *list:
		var views []fleet.JobView
		if err := getJSON(base+"/jobs", &views); err != nil {
			fatalExit("fleet: list: %v", err)
		}
		printJobs(views)
	case *status != "":
		var view fleet.JobView
		if err := getJSON(base+"/job?id="+url.QueryEscape(*status), &view); err != nil {
			fatalExit("fleet: status: %v", err)
		}
		printJobs([]fleet.JobView{view})
	case *cancel != "":
		resp, err := http.Post(base+"/cancel?id="+url.QueryEscape(*cancel), "", nil)
		if err != nil {
			fatalExit("fleet: cancel: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			fatalExit("fleet: cancel: %s returned %s", base, resp.Status)
		}
		fmt.Printf("mostctl: cancelled %s\n", *cancel)
	default:
		fatalExit("fleet: need one of -submit, -list, -status, -cancel (or -run)")
	}
}

func printJobs(views []fleet.JobView) {
	fmt.Printf("%-22s %-8s %-10s %-5s %-4s %-6s %s\n",
		"ID", "TENANT", "STATE", "SLOTS", "SEQ", "STEPS", "ERR")
	for _, v := range views {
		errText := v.Err
		if len(errText) > 40 {
			errText = errText[:40] + "…"
		}
		fmt.Printf("%-22s %-8s %-10s %-5d %-4d %-6d %s\n",
			v.ID, v.Tenant, v.State, v.Slots, v.Seq, v.StepsDone, errText)
	}
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(u string, body any, into any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s returned %s: %s", u, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runFleetSmoke is the fleet scheduling smoke (the CI fleet stage): a
// two-slot shared pool, tenants alpha (four jobs) and beta (two jobs) at
// equal weight, every job one slot. All six are submitted before the
// scheduler starts, so the grant order is a pure function of the
// fair-share policy. The smoke asserts:
//
//   - admission queues the oversubscription (6 queued over 2 slots);
//   - grants alternate tenants while both have work — weighted
//     round-robin, FIFO within a tenant — then drain alpha's backlog;
//   - every job completes all its steps on the shared slots;
//   - each run's roll-up arrives at the fleet aggregator over the real
//     HTTP push path, and the merged /fleet view sums the six runs'
//     coord.steps.completed exactly (mergeable-telemetry invariant);
//   - per-tenant store prefixes hold each job's checkpoint without
//     collisions.
func runFleetSmoke(steps int, listen, store string) {
	if store == "" {
		dir, err := os.MkdirTemp("", "fleet-smoke-*")
		if err != nil {
			fatalExit("fleet: store: %v", err)
		}
		defer os.RemoveAll(dir)
		store = dir
	}

	reg := telemetry.NewRegistry()
	pool, err := fleet.NewPool(fleet.PoolConfig{Slots: 2, Registry: reg})
	if err != nil {
		fatalExit("fleet: pool: %v", err)
	}
	defer func() { _ = pool.Stop(context.Background()) }()

	// The fleet aggregator: pool slots as pull sources, the scheduler's
	// registry in-process, and the runs' pushed roll-ups. A generous
	// StaleAfter keeps early-finishing jobs' rows "ok" at the final check.
	sources := make([]obs.Source, 0, pool.Size()+1)
	for _, site := range pool.Sites() {
		sources = append(sources, obs.Source{
			Name: site.Spec.Name,
			URL:  "http://" + site.Addr + "/metrics",
		})
	}
	sources = append(sources, obs.Source{
		Name:  "fleetd",
		Fetch: reg.Snapshot,
	})
	agg := obs.New(obs.Config{Sources: sources, StaleAfter: 10 * time.Minute})
	ctx := context.Background()
	if err := agg.Start(ctx); err != nil {
		fatalExit("fleet: aggregator: %v", err)
	}
	defer func() { _ = agg.Stop(context.Background()) }()
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatalExit("fleet: listen: %v", err)
	}
	srv := &http.Server{Handler: agg.Mux()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("mostctl: fleet aggregator at %s (push-fed roll-ups at /push, fleet view at /fleet)\n", base)

	sched, err := fleet.NewScheduler(fleet.Config{
		Pool: pool,
		Tenants: []fleet.Tenant{
			{Name: "alpha", Weight: 1},
			{Name: "beta", Weight: 1},
		},
		StoreRoot: store,
		PushURL:   base, // roll-ups travel the real HTTP push path
		Registry:  reg,
	})
	if err != nil {
		fatalExit("fleet: scheduler: %v", err)
	}

	// Submit everything before Start: grants then happen in one
	// deterministic fair-share order.
	var jobs []*fleet.Job
	submitJob := func(tenant, name string) {
		job, err := sched.Submit(fleet.Request{Tenant: tenant, Name: name, Steps: steps})
		if err != nil {
			fatalExit("fleet: submit %s/%s: %v", tenant, name, err)
		}
		jobs = append(jobs, job)
	}
	for i := 1; i <= 4; i++ {
		submitJob("alpha", fmt.Sprintf("run%d", i))
	}
	for i := 1; i <= 2; i++ {
		submitJob("beta", fmt.Sprintf("run%d", i))
	}
	queued := reg.Gauge("fleet.jobs.queued").Value()
	fmt.Printf("mostctl: %d jobs queued over a %d-slot pool (oversubscribed %.1fx)\n",
		len(jobs), pool.Size(), queued/float64(pool.Size()))

	if err := sched.Start(ctx); err != nil {
		fatalExit("fleet: start: %v", err)
	}
	waitCtx, cancelWait := context.WithTimeout(ctx, 3*time.Minute)
	defer cancelWait()
	if err := sched.Wait(waitCtx); err != nil {
		fatalExit("fleet: %v", err)
	}
	stopCtx, cancelStop := context.WithTimeout(ctx, 30*time.Second)
	defer cancelStop()
	if err := sched.Stop(stopCtx); err != nil {
		fatalExit("fleet: stop: %v", err)
	}
	// One deliberate post-run scrape so the fleetd self source (and the
	// slot sources) reflect the finished fleet regardless of loop phase.
	agg.ScrapeOnce(ctx)

	problems := verifyFleetSmoke(base, sched, jobs, steps, store)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "mostctl: fleet check: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("mostctl: fleet check passed: fair-share grant order, %d/%d jobs complete, fleet roll-up exact, tenant stores isolated\n",
		len(jobs), len(jobs))
}

// verifyFleetSmoke checks the smoke's acceptance shape.
func verifyFleetSmoke(base string, sched *fleet.Scheduler, jobs []*fleet.Job, steps int, store string) []string {
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Fair-share grant order: with equal weights and both queues nonempty,
	// grants alternate tenants; once beta drains, alpha's FIFO backlog
	// takes the remaining turns.
	want := []string{"alpha", "beta", "alpha", "beta", "alpha", "alpha"}
	got := sched.GrantOrder()
	fmt.Printf("mostctl: grant order: %s\n", strings.Join(got, " "))
	if strings.Join(got, " ") != strings.Join(want, " ") {
		badf("grant order %v, want %v", got, want)
	}

	// Every job completed every step.
	for _, job := range jobs {
		view, ok := sched.Job(job.ID)
		if !ok {
			badf("job %s vanished", job.ID)
			continue
		}
		if view.State != fleet.StateDone {
			badf("job %s state=%s err=%q, want done", view.ID, view.State, view.Err)
		}
		if view.StepsDone != steps {
			badf("job %s completed %d/%d steps", view.ID, view.StepsDone, steps)
		}
		// Tenant isolation on disk: the checkpoint lives under the
		// tenant-prefixed store path.
		wantPrefix := filepath.Join(store, view.Tenant)
		if !strings.HasPrefix(view.Store, wantPrefix) {
			badf("job %s store %q not under tenant prefix %q", view.ID, view.Store, wantPrefix)
		}
		if _, err := os.Stat(filepath.Join(view.Store, "checkpoint.log")); err != nil {
			badf("job %s checkpoint: %v", view.ID, err)
		}
	}

	// The fleet roll-up, served over HTTP: one pushed source per job, and
	// the merged counters sum the runs exactly — six runs of N steps read
	// back as exactly 6N committed steps.
	view, err := fetchFleet(base)
	if err != nil {
		badf("fetch fleet view: %v", err)
		return problems
	}
	pushed := 0
	for _, s := range view.Sites {
		if strings.Contains(s.Name, "/") {
			pushed++
			if s.State != obs.StateOK {
				badf("pushed source %s state=%s, want ok", s.Name, s.State)
			}
		}
	}
	if pushed != len(jobs) {
		badf("fleet view has %d pushed job roll-ups, want %d", pushed, len(jobs))
	}
	if view.MergeError != "" {
		badf("fleet merge error: %s", view.MergeError)
	}
	wantSteps := int64(len(jobs) * steps)
	if gotSteps := view.Merged.Counters["coord.steps.completed"]; gotSteps != wantSteps {
		badf("fleet roll-up coord.steps.completed=%d, want %d", gotSteps, wantSteps)
	}
	fmt.Printf("mostctl: fleet roll-up: %d pushed runs, merged coord.steps.completed=%d\n",
		pushed, view.Merged.Counters["coord.steps.completed"])

	// The scheduler's own accounting agrees.
	if got := view.Merged.Counters["fleet.jobs.completed"]; got != int64(len(jobs)) {
		badf("fleet.jobs.completed=%d, want %d", got, len(jobs))
	}
	if got := view.Merged.Counters["fleet.jobs.failed"]; got != 0 {
		badf("fleet.jobs.failed=%d, want 0", got)
	}
	if got := view.Merged.Counters["fleet.leases.granted"]; got != int64(len(jobs)) {
		badf("fleet.leases.granted=%d, want %d", got, len(jobs))
	}
	if got := view.Merged.Counters["fleet.leases.released"]; got != int64(len(jobs)) {
		badf("fleet.leases.released=%d, want %d", got, len(jobs))
	}
	return problems
}
