// Command nsdsd runs a NEESgrid Streaming Data Service endpoint (paper
// §2.2): a best-effort real-time fan-out of DAQ samples to remote
// subscribers over TCP. With -demo it publishes a synthetic two-channel
// signal so viewers can be exercised without an experiment. With -relay
// it becomes a fan-out relay instead: it subscribes to an upstream nsdsd
// over one connection and re-fans the stream out to its own subscribers,
// so a tree of relays multiplies viewer capacity without multiplying
// load on the experiment site.
//
// Examples:
//
//	nsdsd -addr 127.0.0.1:7777 -demo -http 127.0.0.1:8777
//	nsdsd -addr 127.0.0.1:7778 -relay 127.0.0.1:7777
//
// -http serves an SSE gateway at /stream (browser viewers: curl -N
// 'http://addr/stream?channels=demo.disp&catchup=1') and the telemetry
// registry at /metrics, including the per-tier nsds.tier.* and
// nsds.sub.dropped counters.
//
// -pprof serves the ops surface every daemon shares: /debug/pprof/,
// /metrics, /trace, /healthz and /readyz.
//
// SIGINT/SIGTERM drain the process: the demo feed stops, the HTTP
// listener and then the stream listener close, subscriber connections
// are severed and waited on, then the hub (or relay) closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"neesgrid/internal/nsds"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:7777", "listen address")
	httpAddr := flag.String("http", "", "serve the SSE gateway (/stream) and /metrics on this address (off when empty)")
	relayOf := flag.String("relay", "", "run as a relay of the upstream nsdsd at this address")
	demo := flag.Bool("demo", false, "publish a synthetic demo signal")
	demoRate := flag.Duration("demo-rate", 10*time.Millisecond, "demo sample interval")
	retention := flag.Int("retention", 1000, "samples retained per channel for late joiners (0 = off)")
	writeTimeout := flag.Duration("write-timeout", nsds.DefaultWriteTimeout,
		"disconnect a subscriber that stalls a write this long (0 = never)")
	var debugFlags runtime.DebugFlags
	debugFlags.Register(nil)
	flag.Parse()

	if *relayOf != "" && *demo {
		fmt.Fprintln(os.Stderr, "nsdsd: -relay and -demo are mutually exclusive")
		return 2
	}

	reg := telemetry.NewRegistry()
	rec := trace.NewRecorder(0)
	sup := runtime.NewSupervisor("nsdsd")
	debugFlags.Install(sup, reg, rec)

	// Stop order (reverse of registration): demo feed first, then the
	// HTTP gateway, then the stream server (listener + subscriber conns),
	// then the hub / relay.
	var hub *nsds.Hub
	var relay *nsds.Relay
	if *relayOf != "" {
		relay = nsds.NewRelay(nsds.RelayConfig{
			Upstream:  *relayOf,
			Retention: *retention,
			Telemetry: reg,
		})
		hub = relay.Hub()
		sup.Add("relay", relay) // Stop closes the relay hub too.
	} else {
		hub = nsds.NewHub()
		hub.SetRetention(*retention)
		hub.UseTelemetry(reg, "hub")
		sup.Add("hub", runtime.StopFunc(hub.Close))
	}
	hub.UseTracer(trace.NewTracer(runtime.Env{}, "nsdsd", rec))

	srv := nsds.NewServer(hub)
	if *writeTimeout <= 0 {
		srv.WriteTimeout = -1
	} else {
		srv.WriteTimeout = *writeTimeout
	}
	sup.Add("server", runtime.Funcs{
		StartFunc: func(context.Context) error {
			bound, err := srv.Start(*addr)
			if err != nil {
				return err
			}
			if relay != nil {
				fmt.Printf("nsdsd: relaying %s on %s (%d shards)\n", *relayOf, bound, hub.ShardCount())
			} else {
				fmt.Printf("nsdsd: streaming on %s (%d shards)\n", bound, hub.ShardCount())
			}
			return nil
		},
		StopFunc:    srv.Stop,
		HealthyFunc: srv.Healthy,
	})

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/stream", nsds.NewGateway(hub))
		mux.Handle("/metrics", telemetry.Handler(reg))
		gw := runtime.NewHTTPServer(runtime.Env{}, *httpAddr, mux)
		sup.Add("http", runtime.Funcs{
			StartFunc: func(ctx context.Context) error {
				if err := gw.Start(ctx); err != nil {
					return err
				}
				fmt.Printf("nsdsd: SSE gateway at http://%s/stream, metrics at /metrics\n", gw.Addr())
				return nil
			},
			StopFunc:    gw.Stop,
			HealthyFunc: gw.Healthy,
		})
	}

	if *demo {
		stop := make(chan struct{})
		sup.Add("demo-feed", runtime.Funcs{
			StartFunc: func(context.Context) error {
				go func() {
					t := time.NewTicker(*demoRate)
					defer t.Stop()
					start := time.Now()
					for {
						select {
						case now := <-t.C:
							et := now.Sub(start).Seconds()
							hub.PublishBatch([]nsds.Sample{
								{Channel: "demo.disp", T: et,
									Value: 0.01 * math.Sin(2*math.Pi*1.2*et)},
								{Channel: "demo.force", T: et,
									Value: 7.7e3 * math.Sin(2*math.Pi*1.2*et)},
							})
						case <-stop:
							return
						}
					}
				}()
				fmt.Println("nsdsd: publishing demo.disp and demo.force")
				return nil
			},
			StopFunc: func(context.Context) error {
				close(stop)
				return nil
			},
		})
	}

	code := runtime.Main("nsdsd", sup, nil)
	published, dropped := hub.Stats()
	fmt.Printf("nsdsd: shut down (published %d, delivered %d, dropped %d)\n",
		published, hub.Delivered(), dropped)
	if relay != nil {
		fmt.Printf("nsdsd: relay forwarded %d, deduplicated %d, reconnected %d times\n",
			relay.Forwarded(), relay.Duplicates(), relay.Reconnects())
	}
	return code
}
