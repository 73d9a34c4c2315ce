package runtime

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"

	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// HealthzHandler serves liveness: 200 "ok" while the process and its
// started components are healthy, 503 with the aggregated error text
// otherwise. Liveness stays 200 during a graceful drain — a draining
// process is doing exactly what it should and must not be killed for it.
func (s *Supervisor) HealthzHandler() http.Handler {
	return probeHandler(s.Healthy)
}

// ReadyzHandler serves readiness: 503 until every component is up, 200
// while serving, and 503 again the moment drain begins — before any
// listener closes, so an orchestrator routing on /readyz stops sending
// traffic ahead of the connection resets.
func (s *Supervisor) ReadyzHandler() http.Handler {
	return probeHandler(s.Ready)
}

func probeHandler(probe func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := probe(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "%v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
	})
}

// RegisterProbes mounts the supervisor's /healthz and /readyz handlers on
// an existing mux — for daemons whose primary API listener should answer
// probes directly (fleetd serves them beside /fleet and /metrics) instead
// of requiring a separate -pprof side listener.
func (s *Supervisor) RegisterProbes(mux *http.ServeMux) {
	mux.Handle("/healthz", s.HealthzHandler())
	mux.Handle("/readyz", s.ReadyzHandler())
}

// DebugMux is the one ops surface every daemon serves behind its -pprof
// flag: the net/http/pprof profiles under /debug/pprof/, the registry at
// /metrics, the recorder's spans at /trace (nil serves []), and the
// supervisor's /healthz and /readyz.
func DebugMux(sup *Supervisor, reg *telemetry.Registry, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", telemetry.Handler(reg))
	mux.Handle("/trace", trace.Handler(rec))
	sup.RegisterProbes(mux)
	return mux
}

// ExportSpanDrops exports rec's evicted span count on reg as the gauge
// trace.spans.dropped, so a wrapped span ring is told from a quiet one.
func ExportSpanDrops(reg *telemetry.Registry, rec *trace.Recorder) {
	reg.GaugeFunc("trace.spans.dropped", func() float64 { return float64(rec.Dropped()) })
}

// HTTPServer is every HTTP listener of the module as a Component: the
// -pprof side listener, the daemons' own APIs and the OGSI container. When
// it serves the probes, register it first: components stop in reverse
// order, so the first-registered server is the last stopped and /readyz
// keeps answering 503 for the whole drain.
type HTTPServer struct {
	env     Env
	addr    string
	handler http.Handler

	bound   atomic.Value // string
	serving atomic.Bool
	srv     *http.Server
}

// NewHTTPServer creates a server of handler for addr on env's network (e.g.
// "127.0.0.1:6060"; port 0 picks a free one, readable from Addr after
// Start).
func NewHTTPServer(env Env, addr string, handler http.Handler) *HTTPServer {
	return &HTTPServer{env: env, addr: addr, handler: handler}
}

// Addr returns the bound address once started ("" before).
func (d *HTTPServer) Addr() string {
	if a, ok := d.bound.Load().(string); ok {
		return a
	}
	return ""
}

// Start binds the listener and serves in the background.
func (d *HTTPServer) Start(ctx context.Context) error {
	ln, err := d.env.Listen(d.addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", d.addr, err)
	}
	d.bound.Store(ln.Addr().String())
	d.srv = &http.Server{Handler: d.handler}
	d.serving.Store(true)
	go func() { _ = d.srv.Serve(ln) }()
	return nil
}

// Stop shuts the server down within ctx.
func (d *HTTPServer) Stop(ctx context.Context) error {
	if d.srv == nil {
		return nil
	}
	d.serving.Store(false)
	return d.srv.Shutdown(ctx)
}

// Healthy reports whether the listener is up.
func (d *HTTPServer) Healthy() error {
	if !d.serving.Load() {
		return fmt.Errorf("http server not serving")
	}
	return nil
}
