// The daemons are the harness: ntcpd builds its plugin with the builder
// in-process sites use and the coordinator binary runs through
// most.Connect, so one spec run as processes and run in-process must
// produce the same response history to the byte, every backend kind must
// serve a coordinator from the binary, and a rig refuses at proposal what
// its actuator cannot reach.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/gsi"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/structural"
)

// deployment is the package's one trust domain and built binaries:
// gridca's CA with a credential per subject the tests run under, and the
// eight binaries linked once, in a directory TestMain removes.
type deployment struct {
	dir, bin, certs string
}

var (
	deployOnce sync.Once
	deployed   *deployment
	deployErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if deployed != nil {
		_ = os.RemoveAll(deployed.dir)
	}
	os.Exit(code)
}

// newDeployment returns the shared deployment, building it on first use.
func newDeployment(t *testing.T) *deployment {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	deployOnce.Do(func() { deployed, deployErr = buildDeployment() })
	if deployErr != nil {
		t.Fatal(deployErr)
	}
	return deployed
}

func buildDeployment() (*deployment, error) {
	dir, err := os.MkdirTemp("", "neesgrid-e2e-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, bin: filepath.Join(dir, "bin"), certs: filepath.Join(dir, "certs")}
	if err := goBuild(d.bin, "gridca", "ntcpd", "coordinator", "fleetd", "mostctl", "nsdsd", "repod", "chefd"); err != nil {
		return d, err
	}
	if _, err := d.exec("gridca", "init", "-dir", d.certs); err != nil {
		return d, err
	}
	for _, subject := range []string{"uiuc", "ncsa", "cu", "site", "coordinator"} {
		if _, err := d.exec("gridca", "issue", "-dir", d.certs, "-subject", "/O=NEES/CN="+subject); err != nil {
			return d, err
		}
	}
	return d, nil
}

// exec runs a binary to completion and returns its combined output.
func (d *deployment) exec(name string, args ...string) (string, error) {
	cmd := exec.Command(filepath.Join(d.bin, name), args...)
	cmd.Dir = d.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return string(out), fmt.Errorf("%s %v: %w\n%s", name, args, err, out)
	}
	return string(out), nil
}

// run is exec that fails t.
func (d *deployment) run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := d.exec(name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// startSite starts an ntcpd for the credential of name, with default flags
// beyond those given, and returns its address once it listens. The process
// is killed when t ends.
func (d *deployment) startSite(t *testing.T, name string, flags ...string) string {
	t.Helper()
	addr := freePort(t)
	cmd := exec.Command(filepath.Join(d.bin, "ntcpd"), append([]string{
		"-addr", addr,
		"-ca-cert", filepath.Join(d.certs, "ca.cert"),
		"-cred", filepath.Join(d.certs, name+".cred"),
		"-allow", "/O=NEES/CN=coordinator=coord",
	}, flags...)...)
	cmd.Dir = d.dir
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	waitListening(t, addr)
	return addr
}

// coordinate runs the coordinator binary over cfg, with flags beyond the
// credential's, and returns its output directory and console output. A
// coordinator that exits non-zero fails t.
func (d *deployment) coordinate(t *testing.T, cfg map[string]any, flags ...string) (outDir, output string) {
	t.Helper()
	outDir, output, err := d.tryCoordinate(t, cfg, flags...)
	if err != nil {
		t.Fatal(err)
	}
	return outDir, output
}

// tryCoordinate is coordinate that returns the coordinator's exit error.
func (d *deployment) tryCoordinate(t *testing.T, cfg map[string]any, flags ...string) (outDir, output string, err error) {
	t.Helper()
	raw, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	cfgPath := filepath.Join(work, "config.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	outDir = filepath.Join(work, "out")
	output, err = d.exec("coordinator", append([]string{
		"-config", cfgPath,
		"-ca-cert", filepath.Join(d.certs, "ca.cert"),
		"-cred", filepath.Join(d.certs, "coordinator.cred"),
		"-out", outDir,
	}, flags...)...)
	return outDir, output, err
}

// coordinatorConfig is the coordinator's JSON config for sites at addrs:
// a 20 t story at 2 % damping, 0.4 g of the seed-1940 record.
func coordinatorConfig(name string, steps int, sites []map[string]any) map[string]any {
	return map[string]any{
		"name": name, "mass": 20000.0, "damping": 0.02,
		"dt": 0.01, "steps": steps,
		"ground": map[string]any{"pga_g": 0.4, "seed": 1940},
		"retry":  map[string]any{"attempts": 5, "backoff_ms": 50},
		"sites":  sites,
	}
}

// readRollup reads a coordinator's <run>-metrics.json.
func readRollup(t *testing.T, path string) obs.Rollup {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r obs.Rollup
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDaemonsMatchTheHarness(t *testing.T) {
	const steps = 300
	type twinSite struct {
		name, point string
		kind        most.BackendKind
		k           float64
	}
	cases := []struct {
		name  string
		sites []twinSite
	}{
		{"simulation", []twinSite{
			{"uiuc", "left-column", most.KindSimulation, 7.68e5},
			{"ncsa", "middle-frame", most.KindSimulation, 2.0e6},
			{"cu", "right-column", most.KindSimulation, 7.68e5},
		}},
		{"noisy-shore-western", []twinSite{
			{"uiuc", "left-column", most.KindShoreWestern, 7.68e5},
			{"ncsa", "middle-frame", most.KindSimulation, 2.0e6},
			{"cu", "right-column", most.KindSimulation, 7.68e5},
		}},
	}
	d := newDeployment(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// As processes: one ntcpd per site, then the coordinator binary.
			var cfgSites []map[string]any
			for _, s := range tc.sites {
				addr := d.startSite(t, s.name, "-point", s.point, "-kind", s.kind.String(),
					"-k", fmt.Sprint(s.k), "-max-disp", "0.15")
				cfgSites = append(cfgSites, map[string]any{
					"name": s.name, "addr": addr, "point": s.point, "k": s.k})
			}
			outDir, output := d.coordinate(t, coordinatorConfig("twin-"+tc.name, steps, cfgSites))
			if !strings.Contains(output, fmt.Sprintf("completed %d/%d steps", steps, steps)) {
				t.Fatalf("coordinator output:\n%s", output)
			}
			daemons, err := os.ReadFile(filepath.Join(outDir, "twin-"+tc.name+"-history.csv"))
			if err != nil {
				t.Fatal(err)
			}

			// In process: the same spec through most.Build and Run. ntcpd's
			// rigs are noisy; -max-disp is the site policy.
			ground, err := most.ElCentroGround(0.01, steps, 0.4, 1940)
			if err != nil {
				t.Fatal(err)
			}
			spec := most.Spec{
				Name:   "twin-" + tc.name,
				Frame:  structural.FrameConfig{Mass: 20000, DampingRatio: 0.02, Dt: 0.01},
				Steps:  steps,
				Ground: ground,
				Retry:  core.DefaultRetry,
			}
			for _, s := range tc.sites {
				spec.Frame.LeftK += s.k
				spec.Sites = append(spec.Sites, most.SiteSpec{
					Name: s.name, Kind: s.kind, Point: s.point, K: s.k, Hardening: 0.05, Noisy: true,
					Policy: &core.SitePolicy{PointLimits: map[string]core.Limits{
						s.point: {MaxDisplacement: 0.15}}},
				})
			}
			exp, err := most.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer exp.Stop()
			res, err := exp.Run(context.Background())
			if err != nil || res.Err != nil {
				t.Fatalf("in-process run: %v %v", err, res.Err)
			}
			var inProcess bytes.Buffer
			if err := res.History.WriteCSV(&inProcess); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(daemons, inProcess.Bytes()) {
				dl, il := strings.Split(string(daemons), "\n"), strings.Split(inProcess.String(), "\n")
				for i := 0; i < len(dl) && i < len(il); i++ {
					if dl[i] != il[i] {
						t.Fatalf("histories differ first at line %d:\n  daemons:    %s\n  in-process: %s", i+1, dl[i], il[i])
					}
				}
				t.Fatalf("histories differ in length: %d vs %d lines", len(dl), len(il))
			}
			if rows := bytes.Count(daemons, []byte("\n")); rows != steps+2 {
				t.Fatalf("history has %d lines, want header + %d states", rows, steps+1)
			}
		})
	}
}

func TestEveryKindFromTheBinary(t *testing.T) {
	const steps = 10
	d := newDeployment(t)
	for _, kind := range []most.BackendKind{
		most.KindSimulation, most.KindMpluginSim, most.KindShoreWestern,
		most.KindXPC, most.KindLabView, most.KindKinetic,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			addr := d.startSite(t, "site", "-point", "drift", "-kind", kind.String(), "-k", "7.68e5")
			name := "kind-" + kind.String()
			_, output := d.coordinate(t, coordinatorConfig(name, steps, []map[string]any{
				{"name": "site", "addr": addr, "point": "drift", "k": 7.68e5}}))
			if !strings.Contains(output, fmt.Sprintf("completed %d/%d steps", steps, steps)) {
				t.Fatalf("coordinator output:\n%s", output)
			}
			snap := siteMetrics(t, addr)
			if n := snap.Counters["ntcp.server.executed"]; n != steps+1 {
				t.Errorf("ntcp.server.executed = %g, want %d (the step-0 evaluation and %d steps)", n, steps+1, steps)
			}
			for _, g := range []string{"telemetry.events.dropped", "trace.spans.dropped"} {
				if _, ok := snap.Gauges[g]; !ok {
					t.Errorf("/metrics has no %s", g)
				}
			}
			simTime, rig := snap.Gauges["control.rig.sim_time.seconds"]
			wantRig := kind == most.KindShoreWestern || kind == most.KindXPC
			if rig != wantRig || wantRig && simTime <= 0 {
				t.Errorf("control.rig.sim_time.seconds = %g (present %v), want a positive servo time only for a rig", simTime, rig)
			}
		})
	}
}

func TestRigRefusesBeyondStrokeAtPropose(t *testing.T) {
	d := newDeployment(t)
	cert, err := gsi.LoadCertificate(filepath.Join(d.certs, "ca.cert"))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := gsi.LoadCredential(filepath.Join(d.certs, "coordinator.cred"))
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(cert)
	for _, kind := range []string{"shore-western", "xpc"} {
		t.Run(kind, func(t *testing.T) {
			// Default flags: no -max-disp, so no site policy screens the
			// move; the rig's 0.15 m stroke must.
			addr := d.startSite(t, "site", "-kind", kind)
			c := core.NewClient(ogsi.NewClient("http://"+addr, cred, trust), core.NoRetry)
			rec, err := c.Propose(context.Background(), &core.Proposal{
				Name:    "beyond-stroke",
				Actions: []core.Action{{ControlPoint: "drift", Displacements: []float64{0.2}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.State != core.StateRejected || !strings.Contains(rec.Error, "exceeds site limit 0.15") {
				t.Fatalf("0.2 m proposal: state %s (%q), want rejected beyond the 0.15 m stroke", rec.State, rec.Error)
			}
			if rec, err := c.Execute(context.Background(), "beyond-stroke"); err == nil && rec.State == core.StateExecuted {
				t.Fatal("a rejected proposal executed")
			}
			snap := siteMetrics(t, addr)
			if n := snap.Counters["ntcp.server.executed"] + snap.Counters["ntcp.server.failed"]; n != 0 {
				t.Errorf("%g executions reached the rig, want 0", n)
			}
			if s := snap.Gauges["control.rig.sim_time.seconds"]; s != 0 {
				t.Errorf("the rig ran %g s of servo time, want 0", s)
			}
		})
	}
}

// An SLO breach captures the coordinator's goroutine profile from its
// -pprof mux at the address the mux bound, an ephemeral port here.
func TestBreachProfileFromAnEphemeralPprofPort(t *testing.T) {
	d := newDeployment(t)
	addr := d.startSite(t, "site", "-kind", "simulation")
	rules := filepath.Join(t.TempDir(), "slo.json")
	// The merged process.goroutines exceeds 1 from the first scrape on.
	if err := os.WriteFile(rules, []byte(`[{"name":"goroutines","kind":"gauge","metric":"process.goroutines","max":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir, output, err := d.tryCoordinate(t, coordinatorConfig("profiled", 300, []map[string]any{
		{"name": "site", "addr": addr, "point": "drift", "k": 7.68e5}}),
		"-pprof", "127.0.0.1:0", "-slo", rules)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("coordinator: %v, want exit 3 for the breach\n%s", err, output)
	}
	profile, err := os.ReadFile(filepath.Join(outDir, "slo-goroutines-coordinator.goroutine.txt"))
	if err != nil {
		t.Fatalf("no breach profile: %v\n%s", err, output)
	}
	if !bytes.Contains(profile, []byte("goroutine profile:")) {
		t.Fatalf("breach profile is not a goroutine profile:\n%.300s", profile)
	}
}
