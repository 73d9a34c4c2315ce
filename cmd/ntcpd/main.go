// Command ntcpd runs one NEESgrid site: an OGSI container hosting an NTCP
// server whose control plugin drives either a numerical substructure or an
// emulated rig (paper Fig. 2 / Fig. 9). Pointed at by cmd/coordinator. The
// plugin is most.NewBackend's, as an in-process site's, for any -kind; rigs
// read back with sensor noise.
//
// Example (a UIUC-style site with an emulated servo-hydraulic rig):
//
//	ntcpd -addr 127.0.0.1:4455 \
//	      -ca-cert certs/ca.cert -cred certs/uiuc.cred \
//	      -allow "/O=NEES/CN=coordinator=coord" \
//	      -point left-column -kind shore-western \
//	      -k 7.7e5 -fy 25e3 -hardening 0.05 -max-disp 0.15
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM drain the process: /readyz flips not-ready, in-flight
// NTCP executions get their deadline to finish (new proposals are
// refused with a retryable code), then the container closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/most"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:4455", "listen address")
	point := flag.String("point", "drift", "control point name")
	kind := most.KindSimulation
	flag.Var(&kind, "kind", "backend: "+strings.Join(most.KindNames(), "|"))
	k := flag.Float64("k", 7.7e5, "substructure elastic stiffness N/m")
	fy := flag.Float64("fy", 0, "yield force N (0 = linear)")
	hardening := flag.Float64("hardening", 0.05, "post-yield stiffness ratio")
	maxDisp := flag.Float64("max-disp", 0, "site policy displacement limit m (0 = none)")
	var gsiFlags runtime.GSIFlags
	var debugFlags runtime.DebugFlags
	gsiFlags.Register(nil)
	debugFlags.Register(nil)
	flag.Parse()

	id, err := gsiFlags.Load()
	if err != nil {
		return fatal("%v", err)
	}

	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(0)
	// The trace service name is the credential's CN — the site name in the
	// merged timeline.
	tracer := trace.NewTracer(id.ServiceName(), rec)

	sup := runtime.NewSupervisor("ntcpd")
	debugFlags.Install(sup, reg, rec)

	// Backend rig pieces start inline (they must exist before the server)
	// and are adopted into the stop order; the container and NTCP server
	// are supervisor-started. Registration order matters: the server
	// registers after the container so it drains first — a mid-step
	// coordinator sees the retryable drain code over a still-open listener,
	// not a connection reset.
	backend, err := most.NewBackend(most.SiteSpec{
		Name: id.ServiceName(), Kind: kind, Point: *point,
		K: *k, Fy: *fy, Hardening: *hardening, Noisy: true,
	}, sup, reg)
	if err != nil {
		return fatal("%v", err)
	}
	var policy *core.SitePolicy
	if *maxDisp > 0 {
		policy = &core.SitePolicy{PointLimits: map[string]core.Limits{
			*point: {MaxDisplacement: *maxDisp},
		}}
	}
	server := core.NewServer(backend.Plugin, policy, core.ServerOptions{Telemetry: reg, Tracer: tracer})
	cont := ogsi.NewContainer(id.Cred, id.Trust, id.Gridmap)
	cont.UseTelemetry(reg)
	cont.UseTracer(tracer)
	cont.AddService(server.Service())
	sup.Add("container", runtime.Funcs{
		StartFunc: func(context.Context) error {
			bound, err := cont.Start(*addr)
			if err != nil {
				return err
			}
			fmt.Printf("ntcpd: site %s serving %q (%s, k=%g) on %s\n",
				id.Cred.Identity(), *point, kind, *k, bound)
			fmt.Printf("ntcpd: metrics at http://%s/metrics, spans at http://%s/trace\n",
				bound, bound)
			return nil
		},
		StopFunc:    cont.Stop,
		HealthyFunc: cont.Healthy,
	}, runtime.WithDrain(time.Second))
	sup.Add("ntcp-server", server)

	return runtime.Main("ntcpd", sup, nil)
}

func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "ntcpd: "+format+"\n", args...)
	return 1
}
