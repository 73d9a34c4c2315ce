// Command chefd runs the CHEF-style collaboration server (paper §3, Fig. 8):
// login, chat, message board, electronic notebook, presence, and the data
// viewer. With -nsds it subscribes to a streaming endpoint and records the
// stream for the viewer windows and VCR playback.
//
// Example:
//
//	chefd -addr 127.0.0.1:8088 -nsds 127.0.0.1:7777
//
// SIGINT/SIGTERM drain the process: the NSDS feed disconnects first, then
// in-flight HTTP requests get the drain deadline to finish before the
// listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"neesgrid/internal/collab"
	"neesgrid/internal/nsds"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telepresence"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8088", "HTTP listen address")
	nsdsAddr := flag.String("nsds", "", "NSDS endpoint to record (empty = no viewer feed)")
	workspace := flag.String("workspace", "most", "workspace name")
	retention := flag.Int("retention", 100_000, "viewer samples kept per channel")
	camera := flag.String("camera", "", "expose a telepresence camera tracking this viewer channel")
	var debugFlags runtime.DebugFlags
	debugFlags.Register(nil)
	flag.Parse()

	ws := collab.NewWorkspace(*workspace)
	viewer := collab.NewViewer(*retention)

	sup := runtime.NewSupervisor("chefd")
	ds := debugFlags.Install(sup, nil)

	mux := http.NewServeMux()
	mux.Handle("/", collab.NewHandler(ws, viewer))
	if *camera != "" {
		reg := telepresence.NewRegistry()
		// The demo camera watches the most recent sample of the named
		// viewer channel — remote participants see the specimen move.
		_ = reg.Add(telepresence.NewCamera(*camera+"-cam1", func() float64 {
			win := viewer.Window(*camera, 0, 1e18)
			if len(win) == 0 {
				return 0
			}
			return win[len(win)-1].Value
		}))
		mux.Handle("/cameras", telepresence.NewHandler(reg))
		mux.Handle("/cameras/", telepresence.NewHandler(reg))
		fmt.Printf("chefd: telepresence camera %s-cam1 (GET /cameras)\n", *camera)
	}

	// Stop order (reverse of registration): the feed disconnects before the
	// workspace server shuts down.
	srv := runtime.NewDebugServer(*addr, mux)
	sup.Add("workspace-server", runtime.Funcs{
		StartFunc: func(ctx context.Context) error {
			if err := srv.Start(ctx); err != nil {
				return err
			}
			fmt.Printf("chefd: workspace %q on http://%s (POST /login, /chat, /board, /notebook, GET /presence, /viewer/window)\n",
				*workspace, srv.Addr())
			if ds != nil {
				fmt.Printf("chefd: probes at http://%s/healthz /readyz\n", ds.Addr())
			}
			return nil
		},
		StopFunc:    srv.Stop,
		HealthyFunc: srv.Healthy,
	})
	if *nsdsAddr != "" {
		var cl *nsds.Client
		sup.Add("nsds-feed", runtime.Funcs{
			StartFunc: func(context.Context) error {
				var err error
				cl, err = nsds.Dial(*nsdsAddr, 4096, true, nil, nil)
				if err != nil {
					return fmt.Errorf("nsds: %w", err)
				}
				go viewer.FeedFrom(cl.Batches())
				fmt.Printf("chefd: recording stream from %s\n", *nsdsAddr)
				return nil
			},
			StopFunc: func(context.Context) error {
				return cl.Close()
			},
		})
	}

	return runtime.Main("chefd", sup, nil)
}
