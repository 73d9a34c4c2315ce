// Package e2e builds the real binaries and runs a three-site distributed
// experiment as separate OS processes — the deployment story of README.md
// verified end to end: gridca bootstraps the trust domain, three ntcpd
// daemons serve the substructures, and the coordinator drives the
// pseudo-dynamic loop over the loopback network.
package e2e

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries builds the named commands into bin.
func buildBinaries(t *testing.T, bin string, cmds ...string) {
	t.Helper()
	if err := goBuild(bin, cmds...); err != nil {
		t.Fatal(err)
	}
}

// goBuild builds the module's named commands into bin.
func goBuild(bin string, cmds ...string) error {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return fmt.Errorf("go env GOMOD: %w", err)
	}
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, c := range cmds {
		args = append(args, "neesgrid/cmd/"+c)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = filepath.Dir(strings.TrimSpace(string(gomod)))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started listening", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestMultiProcessDeployment(t *testing.T) {
	// 1. Trust domain.
	d := newDeployment(t)

	// 2. Three sites as daemons.
	type site struct {
		name, point, kind string
		k                 float64
	}
	sites := []site{
		{"uiuc", "left-column", "shore-western", 7.68e5},
		{"ncsa", "middle-frame", "simulation", 2.0e6},
		{"cu", "right-column", "simulation", 7.68e5},
	}
	addrs := make([]string, len(sites))
	cfgSites := make([]map[string]any, len(sites))
	for i, s := range sites {
		addrs[i] = d.startSite(t, s.name, "-point", s.point, "-kind", s.kind,
			"-k", fmt.Sprint(s.k), "-max-disp", "0.15")
		cfgSites[i] = map[string]any{"name": s.name, "addr": addrs[i], "point": s.point, "k": s.k}
	}

	// 3. Coordinator config and run.
	outDir, output := d.coordinate(t, coordinatorConfig("e2e", 60, cfgSites))
	if !strings.Contains(output, "completed 60/60 steps") {
		t.Fatalf("coordinator output:\n%s", output)
	}

	// 4. The history CSV is well-formed and shows motion.
	f, err := os.Open(filepath.Join(outDir, "e2e-history.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 62 { // header + 61 states
		t.Fatalf("history has %d rows", len(rows))
	}
	moved := false
	for _, row := range rows[1:] {
		if row[2] != "0" {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("history shows no displacement")
	}

	// 5. The run report has each site's NTCP round trips apart, as an
	// in-process run's does.
	merged := readRollup(t, filepath.Join(outDir, "e2e-metrics.json")).Fleet.Merged
	for _, s := range sites {
		if h := merged.Histograms["ntcp.client."+s.name+".rtt.seconds"]; h.Count == 0 {
			t.Errorf("e2e-metrics.json has no round trips for %s", s.name)
		}
	}

	// 6. The coordinator process (one pinned session transport per site)
	// carried every envelope to a site on one session, and the session
	// closed when the process exited.
	for i, s := range sites {
		snap := siteMetrics(t, addrs[i])
		if n := snap.Counters["ogsi.sessions.accepted"]; n != 1 {
			t.Errorf("%s: %g sessions accepted, want 1", s.name, n)
		}
		if n := snap.Counters["ogsi.auth.signed"] + snap.Counters["ogsi.auth.mac"]; n < 60 {
			t.Errorf("%s: %g envelopes authenticated over its session, want at least 60", s.name, n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for siteMetrics(t, addrs[i]).Gauges["ogsi.sessions.open"] != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the coordinator's session is still open after it exited", s.name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// metricsSnapshot is the part of a container's GET /metrics the tests read.
type metricsSnapshot struct {
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// siteMetrics reads a site container's /metrics.
func siteMetrics(t *testing.T, addr string) metricsSnapshot {
	t.Helper()
	var snap metricsSnapshot
	getJSON(t, "http://"+addr+"/metrics", &snap)
	return snap
}

// getJSON decodes the JSON body of a GET that must answer 200.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
