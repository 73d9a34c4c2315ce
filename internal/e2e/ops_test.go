package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startOps starts a daemon with -pprof 127.0.0.1:0 beside args and returns
// the address its ops banner names. The process is killed when t ends.
func (d *deployment) startOps(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(d.bin, name), append(args, "-pprof", "127.0.0.1:0")...)
	cmd.Dir = d.dir
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), " ops at http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case found <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-found:
		return addr
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("%s printed no ops address\n%s", name, stderr.String())
		return ""
	}
}

// TestEveryDaemonServesOneOpsSurface runs each daemon with -pprof on an
// ephemeral port and reads the same five routes from it: /metrics as JSON
// with the process gauges, /trace as a JSON array, both probes, and the
// profile index. A daemon's own series show there whatever other listener
// it runs: nsdsd's hub counters and span evictions without -http, repod's
// GridFTP sessions.
func TestEveryDaemonServesOneOpsSurface(t *testing.T) {
	d := newDeployment(t)
	ca, cred := filepath.Join(d.certs, "ca.cert"), filepath.Join(d.certs, "site.cred")
	for _, row := range []struct {
		daemon string
		args   func(t *testing.T) []string
		series []string // beyond process.goroutines, as counters or gauges
	}{
		{"ntcpd", func(t *testing.T) []string {
			return []string{"-addr", freePort(t), "-ca-cert", ca, "-cred", cred}
		}, []string{"ogsi.sessions.accepted", "trace.spans.dropped"}},
		{"nsdsd", func(t *testing.T) []string {
			return []string{"-addr", freePort(t)}
		}, []string{"nsds.tier.published.hub", "trace.spans.dropped"}},
		{"repod", func(t *testing.T) []string {
			return []string{"-addr", freePort(t), "-gridftp", freePort(t), "-root", t.TempDir(),
				"-ca-cert", ca, "-cred", cred}
		}, []string{"gridftp.server.sessions", "gsi.chaincache.hits"}},
		{"chefd", func(t *testing.T) []string {
			return []string{"-addr", freePort(t)}
		}, nil},
		{"fleetd", func(t *testing.T) []string {
			return []string{"-listen", freePort(t), "-slots", "1"}
		}, []string{"trace.spans.dropped"}},
	} {
		t.Run(row.daemon, func(t *testing.T) {
			ops := "http://" + d.startOps(t, row.daemon, row.args(t)...)
			waitStatus(t, ops+"/readyz", 200, 10*time.Second)
			for _, path := range []string{"/healthz", "/debug/pprof/"} {
				if code := httpStatus(ops + path); code != 200 {
					t.Errorf("GET %s: %d, want 200", path, code)
				}
			}

			var snap metricsSnapshot
			getJSON(t, ops+"/metrics", &snap)
			if g := snap.Gauges["process.goroutines"]; g <= 0 {
				t.Errorf("process.goroutines = %g, want > 0", g)
			}
			for _, name := range row.series {
				_, counter := snap.Counters[name]
				_, gauge := snap.Gauges[name]
				if !counter && !gauge {
					t.Errorf("/metrics has no %s", name)
				}
			}

			var spans []json.RawMessage
			getJSON(t, ops+"/trace", &spans)
			if spans == nil {
				t.Errorf("/trace is not a JSON array")
			}
		})
	}
}
