// Command repod runs the NEESgrid data and metadata repository (paper §2.3,
// Fig. 3): a GridFTP-style transfer server for bulk data, an OGSI container
// hosting the NMDS and NFMS catalog services, and the HTTPS bridge that
// serves logical files to browser-class clients.
//
// Example:
//
//	repod -addr 127.0.0.1:8445 -gridftp 127.0.0.1:2811 -bridge 127.0.0.1:8446 \
//	      -root /srv/nees-data \
//	      -ca-cert certs/ca.cert -cred certs/repo.cred \
//	      -allow "/O=NEES/CN=uiuc=uiuc,/O=NEES/CN=coordinator=coord"
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM drain the process in reverse start order: bridge, then
// container, then the transfer server, each under its own deadline.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"neesgrid/internal/gridftp"
	"neesgrid/internal/nfms"
	"neesgrid/internal/nmds"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/repo"
	"neesgrid/internal/runtime"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8445", "OGSI container address (NMDS + NFMS)")
	gridftpAddr := flag.String("gridftp", "127.0.0.1:2811", "GridFTP-style transfer address")
	bridgeAddr := flag.String("bridge", "", "HTTPS-bridge address (empty = disabled)")
	root := flag.String("root", "data", "file store root directory")
	var gsiFlags runtime.GSIFlags
	var debugFlags runtime.DebugFlags
	gsiFlags.Register(nil)
	debugFlags.Register(nil)
	flag.Parse()

	id, err := gsiFlags.Load()
	if err != nil {
		return fatal("%v", err)
	}
	r, err := repo.New(id.Cred.Identity())
	if err != nil {
		return fatal("repository: %v", err)
	}
	ftp, err := gridftp.NewServer(*root)
	if err != nil {
		return fatal("gridftp: %v", err)
	}

	cont := ogsi.NewContainer(id.Cred, id.Trust, id.Gridmap)
	sup := runtime.NewSupervisor("repod")
	debugFlags.Install(sup, cont.Telemetry(), nil)

	sup.Add("gridftp", runtime.Funcs{
		StartFunc: func(context.Context) error {
			bound, err := ftp.Start(*gridftpAddr)
			if err != nil {
				return err
			}
			fmt.Printf("repod: gridftp serving %s on %s\n", *root, bound)
			return nil
		},
		StopFunc: func(context.Context) error { return ftp.Close() },
	})

	// The transfer server, and the client the bridge fetches through, count
	// into the container's registry, so GET /metrics shows gridftp.* too.
	ftp.UseTelemetry(cont.Telemetry())
	transport := &nfms.GridFTPTransport{}
	transport.UseTelemetry(cont.Telemetry())
	r.Files.RegisterTransport("gridftp", transport)
	cont.AddService(nmds.NewService(r.Meta))
	cont.AddService(nfms.NewService(r.Files))
	sup.Add("container", runtime.Funcs{
		StartFunc: func(context.Context) error {
			bound, err := cont.Start(*addr)
			if err != nil {
				return err
			}
			fmt.Printf("repod: NMDS + NFMS on %s (identity %s)\n", bound, id.Cred.Identity())
			return nil
		},
		StopFunc:    cont.Stop,
		HealthyFunc: cont.Healthy,
	})

	if *bridgeAddr != "" {
		bridge := &repo.Bridge{Repo: r}
		mux := http.NewServeMux()
		mux.Handle("/files/", bridge)
		bs := runtime.NewHTTPServer(runtime.Env{}, *bridgeAddr, mux)
		sup.Add("https-bridge", runtime.Funcs{
			StartFunc: func(ctx context.Context) error {
				if err := bs.Start(ctx); err != nil {
					return err
				}
				fmt.Printf("repod: https bridge on %s\n", bs.Addr())
				return nil
			},
			StopFunc:    bs.Stop,
			HealthyFunc: bs.Healthy,
		})
	}

	return runtime.Main("repod", sup, nil)
}

func fatal(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "repod: "+format+"\n", args...)
	return 1
}
