// Shutdown smoke: the ISSUE-4 acceptance scenario. A two-site topology
// boots, /readyz is polled until every process reports ready, SIGTERM
// lands on every process mid-step, and the test asserts (a) /readyz flips
// to 503 before the processes exit (the lame-duck window), (b) every
// process exits 0 — the coordinator flushing its partial outputs, the
// sites draining their in-flight NTCP work — and (c) an in-process
// experiment leaves no goroutines behind after Stop.
package e2e

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"neesgrid/internal/most"
	"neesgrid/internal/ogsi"
)

func httpStatus(url string) int {
	cl := &http.Client{Timeout: 500 * time.Millisecond}
	resp, err := cl.Get(url)
	if err != nil {
		return -1
	}
	resp.Body.Close()
	return resp.StatusCode
}

func waitStatus(t *testing.T, url string, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if httpStatus(url) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never returned %d (last %d)", url, want, httpStatus(url))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestGracefulShutdown(t *testing.T) {
	d := newDeployment(t)
	bin, certs, work := d.bin, d.certs, t.TempDir()

	// Two sites with probe listeners and a lame-duck window long enough to
	// observe the 503 before the listeners close.
	const lameDuck = 500 * time.Millisecond
	siteNames := []string{"uiuc", "cu"}
	siteAddrs := make([]string, len(siteNames))
	probeAddrs := make([]string, len(siteNames))
	siteCmds := make([]*exec.Cmd, len(siteNames))
	for i, name := range siteNames {
		siteAddrs[i] = freePort(t)
		probeAddrs[i] = freePort(t)
		cmd := exec.Command(filepath.Join(bin, "ntcpd"),
			"-addr", siteAddrs[i],
			"-ca-cert", filepath.Join(certs, "ca.cert"),
			"-cred", filepath.Join(certs, name+".cred"),
			"-allow", "/O=NEES/CN=coordinator=coord",
			"-point", name+"-col",
			"-kind", "simulation",
			"-k", "7.68e5",
			"-pprof", probeAddrs[i],
			"-lameduck", lameDuck.String(),
		)
		cmd.Dir = work
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		siteCmds[i] = cmd
		proc := cmd.Process
		t.Cleanup(func() {
			_ = proc.Kill()
			_, _ = proc.Wait()
		})
	}
	// Readiness gates the boot: poll /readyz until every site serves 200.
	for _, pa := range probeAddrs {
		waitStatus(t, "http://"+pa+"/readyz", http.StatusOK, 10*time.Second)
		if got := httpStatus("http://" + pa + "/healthz"); got != http.StatusOK {
			t.Fatalf("healthz on ready site = %d", got)
		}
	}

	// A long coordinator run so SIGTERM lands mid-step-loop.
	cfg := map[string]any{
		"name": "shutdown-smoke", "mass": 20000.0, "damping": 0.02,
		"dt": 0.01, "steps": 100000,
		"ground": map[string]any{"pga_g": 0.4, "seed": 1940},
		"retry":  map[string]any{"attempts": 5, "backoff_ms": 50},
		"sites": []map[string]any{
			{"name": "uiuc", "addr": siteAddrs[0], "point": "uiuc-col", "k": 7.68e5},
			{"name": "cu", "addr": siteAddrs[1], "point": "cu-col", "k": 7.68e5},
		},
	}
	raw, _ := json.MarshalIndent(cfg, "", "  ")
	cfgPath := filepath.Join(work, "shutdown.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(work, "out")
	coordProbe := freePort(t)
	coordCmd := exec.Command(filepath.Join(bin, "coordinator"),
		"-config", cfgPath,
		"-ca-cert", filepath.Join(certs, "ca.cert"),
		"-cred", filepath.Join(certs, "coordinator.cred"),
		"-out", outDir,
		"-pprof", coordProbe,
	)
	coordCmd.Dir = work
	var coordOut strings.Builder
	coordCmd.Stdout = &coordOut
	coordCmd.Stderr = &coordOut
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	coordProc := coordCmd.Process
	t.Cleanup(func() { _ = coordProc.Kill() })
	waitStatus(t, "http://"+coordProbe+"/readyz", http.StatusOK, 10*time.Second)

	// Wait until the run is demonstrably mid-step: the first site's
	// container /metrics shows executed transactions.
	waitForProgress(t, siteAddrs[0], 20)

	// SIGTERM everything mid-step.
	for _, cmd := range siteCmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	if err := coordProc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// During the sites' lame-duck window /readyz must flip to 503 while
	// the probe listener is still answering — before any listener closes.
	for _, pa := range probeAddrs {
		waitStatus(t, "http://"+pa+"/readyz", http.StatusServiceUnavailable, 2*time.Second)
	}

	// Every process exits cleanly: the coordinator flushes its partial
	// outputs and exits 0; the sites drain and exit 0.
	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator exit: %v\n%s", err, coordOut.String())
	}
	for i, cmd := range siteCmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("site %s exit: %v", siteNames[i], err)
		}
	}
	if out := coordOut.String(); !strings.Contains(out, "outputs flushed") {
		t.Fatalf("coordinator did not report a flushed interrupt:\n%s", out)
	}
	// The interrupted run's partial history landed on disk.
	if _, err := os.Stat(filepath.Join(outDir, "shutdown-smoke-history.csv")); err != nil {
		t.Fatalf("partial history not flushed: %v", err)
	}
}

// waitForProgress polls a site container's /metrics until it has executed
// at least n transactions.
func waitForProgress(t *testing.T, siteAddr string, n float64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var snap struct {
			Counters map[string]float64 `json:"counters"`
		}
		cl := &http.Client{Timeout: time.Second}
		resp, err := cl.Get("http://" + siteAddr + "/metrics")
		if err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if snap.Counters["ntcp.server.executed"] >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("site %s never reached %g executed transactions", siteAddr, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterExperimentStop is the goleak-style check: an
// in-process experiment builds, runs a few steps, stops — and the
// goroutine count settles back to where it started.
func TestNoGoroutineLeakAfterExperimentStop(t *testing.T) {
	before := gort.NumGoroutine()

	spec := most.DryRunSpec(most.VariantSimulation)
	spec.Steps = 20
	spec.DAQEvery = 5
	exp, err := most.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := exp.Stop(); err != nil {
		t.Fatalf("experiment stop: %v", err)
	}

	// Each container's Stop has ended its sessions' goroutines, and the OGSI
	// transports run none of their own; the shared one still holds idle
	// sockets, closed here so none is left to a finalizer.
	ogsi.DefaultTransport.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		gort.GC() // finalizers can pin goroutines briefly
		after := gort.NumGoroutine()
		if after <= before+2 { // allow runtime/test harness jitter
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := gort.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; leaked stacks:\n%s",
				before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
