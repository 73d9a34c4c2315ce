// Command ntcpd runs one NEESgrid site: an OGSI container hosting an NTCP
// server whose control plugin drives either a numerical substructure or an
// emulated rig (paper Fig. 2 / Fig. 9). Pointed at by cmd/coordinator.
//
// Example (a UIUC-style site with an emulated servo-hydraulic rig):
//
//	ntcpd -addr 127.0.0.1:4455 \
//	      -ca-cert certs/ca.cert -cred certs/uiuc.cred \
//	      -allow "/O=NEES/CN=coordinator=coord" \
//	      -point left-column -kind shore-western \
//	      -k 7.7e5 -fy 25e3 -hardening 0.05 -max-disp 0.15
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
	"sync"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/plugin"
	"neesgrid/internal/runtime"
	"neesgrid/internal/structural"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:4455", "listen address")
	point := flag.String("point", "drift", "control point name")
	kind := flag.String("kind", "simulation", "backend: simulation|shore-western|xpc|kinetic")
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
	ds := debugFlags.Install(sup, rec)

	// Backend rig pieces start inline (they must exist before the server)
	// and are adopted into the stop order; the container and NTCP server
	// are supervisor-started. Registration order matters: the server
	// registers after the container so it drains first — a mid-step
	// coordinator sees the retryable drain code over a still-open listener,
	// not a connection reset.
	plug, err := buildPlugin(sup, *kind, *point, *k, *fy, *hardening)
	if err != nil {
		return fatal("%v", err)
	}
	var policy *core.SitePolicy
	if *maxDisp > 0 {
		policy = &core.SitePolicy{PointLimits: map[string]core.Limits{
			*point: {MaxDisplacement: *maxDisp},
		}}
	}
	server := core.NewServer(plug, policy, core.ServerOptions{Telemetry: reg, Tracer: tracer})
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
				id.Cred.Identity(), *point, *kind, *k, bound)
			fmt.Printf("ntcpd: metrics at http://%s/metrics, spans at http://%s/trace\n",
				bound, bound)
			if ds != nil {
				fmt.Printf("ntcpd: pprof at http://%s/debug/pprof/, probes at /healthz /readyz\n", ds.Addr())
			}
			return nil
		},
		StopFunc:    cont.Stop,
		HealthyFunc: cont.Healthy,
	}, runtime.WithDrain(time.Second))
	sup.Add("ntcp-server", server)

	return runtime.Main("ntcpd", sup, nil)
}

// buildPlugin constructs the control backend, adopting any inline-started
// rig pieces (controller servers, xPC targets) into sup's stop order.
func buildPlugin(sup *runtime.Supervisor, kind, point string, k, fy, hardening float64) (core.Plugin, error) {
	switch kind {
	case "simulation":
		var elem structural.Element
		if fy > 0 {
			elem = structural.NewBilinear(k, fy, hardening)
		} else {
			elem = structural.NewLinearElastic(k)
		}
		var mu sync.Mutex
		return &core.SubstructurePlugin{Point: point, NDOF: 1,
			Apply: func(d []float64) ([]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				return []float64{elem.Restore(d[0])}, nil
			}}, nil
	case "shore-western":
		rig := control.NewColumnRig(point+"-rig", control.DefaultActuator(), k, fy, hardening)
		srv := control.NewShoreWesternServer(rig)
		swAddr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("start shore-western controller: %w", err)
		}
		sup.Adopt("shore-western-server", runtime.StopErrFunc(srv.Close))
		cl := control.NewShoreWesternClient(swAddr)
		sup.Adopt("shore-western-client", runtime.StopErrFunc(cl.Close))
		return &plugin.ShoreWesternPlugin{Point: point, Client: cl}, nil
	case "xpc":
		rig := control.NewColumnRig(point+"-rig", control.DefaultActuator(), k, fy, hardening)
		target := control.NewXPCTarget(rig)
		target.Start()
		sup.Adopt("xpc-target", runtime.StopFunc(target.Stop))
		return &plugin.XPCPlugin{Point: point, Target: target}, nil
	case "kinetic":
		sim := control.NewFirstOrderKinetic(point+"-kinetic", k, 0.02, 1.0)
		var mu sync.Mutex
		return &core.SubstructurePlugin{Point: point, NDOF: 1,
			Apply: func(d []float64) ([]float64, error) {
				mu.Lock()
				defer mu.Unlock()
				return sim.Apply(d)
			}}, nil
	default:
		return nil, fmt.Errorf("unknown -kind %q", kind)
	}
}

func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "ntcpd: "+format+"\n", args...)
	return 1
}
