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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries builds the named commands into bin (by default the three
// of the NTCP deployment: gridca, ntcpd, coordinator).
func buildBinaries(t *testing.T, bin string, cmds ...string) {
	t.Helper()
	if len(cmds) == 0 {
		cmds = []string{"gridca", "ntcpd", "coordinator"}
	}
	args := []string{"build", "-o", bin + string(os.PathSeparator)}
	for _, c := range cmds {
		args = append(args, "neesgrid/cmd/"+c)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
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
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	bin := t.TempDir()
	buildBinaries(t, bin)
	work := t.TempDir()
	certs := filepath.Join(work, "certs")

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// 1. Trust domain.
	run("gridca", "init", "-dir", certs)
	for _, subject := range []string{"uiuc", "ncsa", "cu", "coordinator"} {
		run("gridca", "issue", "-dir", certs, "-subject", "/O=NEES/CN="+subject)
	}

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
	for i, s := range sites {
		addrs[i] = freePort(t)
		cmd := exec.Command(filepath.Join(bin, "ntcpd"),
			"-addr", addrs[i],
			"-ca-cert", filepath.Join(certs, "ca.cert"),
			"-cred", filepath.Join(certs, s.name+".cred"),
			"-allow", "/O=NEES/CN=coordinator=coord",
			"-point", s.point,
			"-kind", s.kind,
			"-k", fmt.Sprint(s.k),
			"-max-disp", "0.15",
		)
		cmd.Dir = work
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		proc := cmd.Process
		t.Cleanup(func() {
			_ = proc.Kill()
			_, _ = cmd.Process.Wait()
		})
	}
	for _, a := range addrs {
		waitListening(t, a)
	}

	// 3. Coordinator config and run.
	cfg := map[string]any{
		"name": "e2e", "mass": 20000.0, "damping": 0.02,
		"dt": 0.01, "steps": 60,
		"ground": map[string]any{"pga_g": 0.4, "seed": 1940},
		"retry":  map[string]any{"attempts": 5, "backoff_ms": 50},
		"sites": []map[string]any{
			{"name": "uiuc", "addr": addrs[0], "point": "left-column", "k": 7.68e5},
			{"name": "ncsa", "addr": addrs[1], "point": "middle-frame", "k": 2.0e6},
			{"name": "cu", "addr": addrs[2], "point": "right-column", "k": 7.68e5},
		},
	}
	raw, _ := json.MarshalIndent(cfg, "", "  ")
	cfgPath := filepath.Join(work, "e2e.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(work, "out")
	output := run("coordinator",
		"-config", cfgPath,
		"-ca-cert", filepath.Join(certs, "ca.cert"),
		"-cred", filepath.Join(certs, "coordinator.cred"),
		"-out", outDir,
	)
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
}
