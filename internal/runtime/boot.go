package runtime

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// ExitError carries an explicit process exit code out of a Main job —
// e.g. the coordinator's "run terminated prematurely" code 2.
type ExitError struct {
	Code int
	Err  error
}

func (e *ExitError) Error() string {
	if e.Err != nil {
		return e.Err.Error()
	}
	return fmt.Sprintf("exit code %d", e.Code)
}

func (e *ExitError) Unwrap() error { return e.Err }

// Exitf builds an ExitError with a formatted message.
func Exitf(code int, format string, args ...any) *ExitError {
	return &ExitError{Code: code, Err: fmt.Errorf(format, args...)}
}

// Main is the shared daemon entrypoint: it translates SIGINT/SIGTERM into
// one context cancellation, starts the supervisor, runs the foreground
// job (nil means "serve until signalled"), then drains the supervisor
// under its stop budget. It returns the process exit code:
//
//	0  clean run and clean drain (including a signal-initiated one)
//	1  a component failed to start, the job failed, or the drain erred
//	n  the job returned *ExitError{Code: n}
//
// The job receives the signal-cancellable context; a daemon-style job
// prints its banner and blocks on ctx.Done(). Main never calls os.Exit —
// callers do, so defers in their main run first.
func Main(name string, sup *Supervisor, job func(ctx context.Context) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := sup.Start(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}

	code := 0
	var jobErr error
	if job != nil {
		jobErr = job(ctx)
	} else {
		<-ctx.Done()
	}
	if jobErr != nil {
		var ee *ExitError
		if errors.As(jobErr, &ee) {
			code = ee.Code
			if ee.Err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, ee.Err)
			}
		} else {
			code = 1
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, jobErr)
		}
	}

	// Stop signal delivery before the drain: a second Ctrl-C during a
	// stuck drain kills the process instead of being swallowed.
	stop()
	stopCtx, cancel := context.WithTimeout(context.Background(), sup.StopBudget())
	defer cancel()
	if err := sup.Stop(stopCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", name, err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// Identity bundles the loaded GSI state every secured daemon needs: its
// own credential, the trust store rooted at the deployment CA, and the
// gridmap of identities allowed in.
type Identity struct {
	CACert  *gsi.Certificate
	Cred    *gsi.Credential
	Trust   *gsi.TrustStore
	Gridmap *gsi.Gridmap
}

// ServiceName returns the credential CN — the name a daemon traces and
// logs under (e.g. "/O=NEES/CN=uiuc" → "uiuc").
func (id *Identity) ServiceName() string {
	svc := id.Cred.Identity()
	if i := strings.LastIndex(svc, "CN="); i >= 0 {
		svc = svc[i+len("CN="):]
	}
	return svc
}

// GSIFlags is the credential/gridmap flag trio every secured daemon used
// to hand-roll. Register the flags, flag.Parse, then Load.
type GSIFlags struct {
	CACert string
	Cred   string
	Allow  string
}

// Register declares -ca-cert, -cred and -allow on fs (flag.CommandLine
// when nil).
func (g *GSIFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&g.CACert, "ca-cert", "certs/ca.cert", "trusted CA certificate")
	fs.StringVar(&g.Cred, "cred", "", "service credential (from gridca issue)")
	fs.StringVar(&g.Allow, "allow", "", "comma-separated identity=account gridmap entries")
}

// Load reads the CA certificate and credential and parses the gridmap.
func (g *GSIFlags) Load() (*Identity, error) {
	if g.Cred == "" {
		return nil, fmt.Errorf("need -cred (issue one with gridca)")
	}
	cert, err := gsi.LoadCertificate(g.CACert)
	if err != nil {
		return nil, fmt.Errorf("load CA cert: %w", err)
	}
	cred, err := gsi.LoadCredential(g.Cred)
	if err != nil {
		return nil, fmt.Errorf("load credential: %w", err)
	}
	gm, err := gsi.ParseGridmap(g.Allow)
	if err != nil {
		return nil, fmt.Errorf("bad -allow: %w", err)
	}
	return &Identity{
		CACert:  cert,
		Cred:    cred,
		Trust:   gsi.NewTrustStore(cert),
		Gridmap: gm,
	}, nil
}

// DebugFlags is the debug/probe listener pair of flags shared by the
// daemons: -pprof picks the side-listener address (DebugMux's profiles,
// /metrics, /trace, /healthz and /readyz) and -lameduck the pause between
// flipping /readyz not-ready and closing the first listener.
type DebugFlags struct {
	Addr     string
	LameDuck time.Duration
}

// Register declares -pprof and -lameduck on fs (flag.CommandLine when
// nil).
func (d *DebugFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&d.Addr, "pprof", "",
		"serve /debug/pprof/, /metrics, /trace, /healthz and /readyz on this address (off when empty)")
	fs.DurationVar(&d.LameDuck, "lameduck", 0,
		"pause between flipping /readyz not-ready and starting the drain")
}

// Install exports rec's span evictions on reg (trace.spans.dropped, when
// rec is set), applies the lame-duck option and, when -pprof is set,
// registers DebugMux(sup, reg, rec) as the supervisor's first component (so
// it outlives the drain and keeps serving /readyz), which prints the address
// it bound. Call before any other Add. It returns the server (nil when
// -pprof is off).
func (d *DebugFlags) Install(sup *Supervisor, reg *telemetry.Registry, rec *trace.Recorder) *HTTPServer {
	if rec != nil {
		ExportSpanDrops(reg, rec)
	}
	if d.LameDuck > 0 {
		WithLameDuck(d.LameDuck)(sup)
	}
	if d.Addr == "" {
		return nil
	}
	ds := NewHTTPServer(d.Addr, DebugMux(sup, reg, rec))
	sup.Add("debug-server", Funcs{
		StartFunc: func(ctx context.Context) error {
			if err := ds.Start(ctx); err != nil {
				return err
			}
			fmt.Printf("%s: ops at http://%s (/debug/pprof/ /metrics /trace /healthz /readyz)\n", sup.name, ds.Addr())
			return nil
		},
		StopFunc:    ds.Stop,
		HealthyFunc: ds.Healthy,
	})
	return ds
}
