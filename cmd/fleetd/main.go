// Command fleetd runs the multi-tenant experiment fleet scheduler: a
// shared pool of NTCP sites, a weighted fair-share scheduler admitting
// jobs from declared tenants, and an observability aggregator that scrapes
// every pool slot and holds each finished run's roll-up, which the
// scheduler pushes to it in-process. One listener serves everything:
//
//	POST /submit /cancel        job admission and withdrawal (mostctl fleet)
//	GET  /jobs /job /grants     job listings and the grant-order observable
//	GET  /fleet /metrics /slo   the fleet observability plane (mostctl top)
//	GET  /series                one metric's ringed values
//	GET  /healthz /readyz       supervisor probes
//
// Example:
//
//	fleetd -listen 127.0.0.1:9190 -slots 2 -tenants alpha:1,beta:1 -store /tmp/fleet
//	mostctl fleet -url http://127.0.0.1:9190 -submit -tenant alpha -job-steps 200
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM drain the process: the scheduler stops admitting and
// cancels running jobs, the aggregator stops scraping, the pool's sites
// tear down, and the API listener closes last so probes answer through
// the drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"neesgrid/internal/fleet"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	listen := flag.String("listen", "127.0.0.1:9190", "fleet API listen address")
	slots := flag.Int("slots", 2, "pooled site slots")
	tenants := flag.String("tenants", "alpha:1,beta:1",
		"admitted tenants as name:weight[,name:weight...]")
	maxQueue := flag.Int("max-queue", fleet.DefaultMaxQueued, "per-tenant queued-job bound")
	store := flag.String("store", "", "tenant-scoped job store root (checkpoints; empty = off)")
	var debugFlags runtime.DebugFlags
	debugFlags.Register(nil)
	flag.Parse()

	ts, err := parseTenants(*tenants, *maxQueue)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		return 2
	}

	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(0)
	sup := runtime.NewSupervisor("fleetd")
	debugFlags.Install(sup, reg, rec)

	pool, err := fleet.NewPool(fleet.PoolConfig{Slots: *slots, Registry: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: pool: %v\n", err)
		return 1
	}

	// The fleet plane: every pool slot is a pull source (the slots'
	// registries carry the server-side ntcp.server.* / hub series across
	// all tenants), the scheduler's own fleet.* registry rides along
	// in-process, and the scheduler pushes each finished run's
	// coordinator-side roll-up in-process as the source <tenant>/<jobID>.
	agg := obs.New(obs.Config{Sources: most.ObsSources(pool.Sites(), "fleetd", reg, nil)})

	sched, err := fleet.NewScheduler(fleet.Config{
		Pool:      pool,
		Tenants:   ts,
		StoreRoot: *store,
		Agg:       agg,
		Registry:  reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: %v\n", err)
		_ = pool.Stop(context.Background())
		return 1
	}

	mux := sched.Mux(agg.Mux())
	sup.RegisterProbes(mux)
	api := runtime.NewHTTPServer(runtime.Env{}, *listen, mux)

	// Start order: API listener first (registered first, stopped last, so
	// probes answer through the drain), then the already-running pool,
	// then the aggregator's scrape loop, then the scheduler — which stops
	// first on drain, cancelling jobs before their sites tear down.
	sup.Add("api", runtime.Funcs{
		StartFunc: func(ctx context.Context) error {
			if err := api.Start(ctx); err != nil {
				return err
			}
			fmt.Printf("fleetd: %d-slot pool, tenants %s\n", pool.Size(), *tenants)
			fmt.Printf("fleetd: API at http://%s (/submit /jobs /grants /fleet /metrics /slo /healthz)\n", api.Addr())
			return nil
		},
		StopFunc:    api.Stop,
		HealthyFunc: api.Healthy,
	})
	sup.Adopt("pool", runtime.Funcs{
		StopFunc:    pool.Stop,
		HealthyFunc: pool.Healthy,
	}, runtime.WithDrain(pool.StopBudget()))
	sup.Add("obs", agg)
	sup.Add("scheduler", sched)

	return runtime.Main("fleetd", sup, nil)
}

// parseTenants reads "name:weight,name:weight" (weight optional,
// default 1).
func parseTenants(s string, maxQueued int) ([]fleet.Tenant, error) {
	var out []fleet.Tenant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		t := fleet.Tenant{Name: name, Weight: 1, MaxQueued: maxQueued}
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("tenant %q: bad weight %q", name, weightStr)
			}
			t.Weight = w
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants needs at least one tenant")
	}
	return out, nil
}
