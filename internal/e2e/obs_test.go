package e2e

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/trace"
)

// The coordinator binary's observability plane over two ntcpd sites: its
// <run>-metrics.json holds every source healthy and exactly merged,
// fleet-wide and per-site RTT quantiles, the sites' server counters and
// process gauges, and an OK verdict on three SLO rules; the fleet RTT's
// exemplar trace resolves to spans a live site recorded.
func TestCoordinatorObsPlane(t *testing.T) {
	const steps = 25
	d := newDeployment(t)
	sites := []string{"uiuc", "ncsa"}
	addrs := make([]string, len(sites))
	cfgSites := make([]map[string]any, len(sites))
	for i, name := range sites {
		addrs[i] = d.startSite(t, name, "-point", name+"-col", "-kind", "simulation",
			"-k", "7.68e5", "-pprof", "127.0.0.1:0")
		cfgSites[i] = map[string]any{"name": name, "addr": addrs[i], "point": name + "-col", "k": 7.68e5}
	}
	// Generous bounds: the rules prove the gate's wiring, not the timing.
	rules := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(rules, []byte(`[
		{"name": "rtt-p99", "kind": "quantile", "metric": "ntcp.client.rtt.seconds", "q": 0.99, "max": 30},
		{"name": "step-p99", "kind": "quantile", "metric": "coord.step.seconds", "q": 0.99, "max": 60},
		{"name": "drop-rate", "kind": "rate", "metric": "nsds.sub.dropped", "max": 1e9}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir, output := d.coordinate(t, coordinatorConfig("obs", steps, cfgSites), "-slo", rules)
	if !strings.Contains(output, "completed 25/25 steps") {
		t.Fatalf("coordinator output:\n%s", output)
	}

	r := readRollup(t, filepath.Join(outDir, "obs-metrics.json"))
	if len(r.Fleet.Sites) != len(sites)+1 {
		t.Errorf("%d sources in the roll-up, want the %d sites and the coordinator", len(r.Fleet.Sites), len(sites))
	}
	for _, s := range r.Fleet.Sites {
		if s.State != "ok" {
			t.Errorf("source %s state %s (%s), want ok", s.Name, s.State, s.Error)
		}
	}
	if r.Fleet.MergeError != "" {
		t.Errorf("merge error: %s", r.Fleet.MergeError)
	}
	merged := r.Fleet.Merged
	rtt := merged.Histograms["ntcp.client.rtt.seconds"]
	if rtt.Count == 0 || rtt.P50 > rtt.P95 || rtt.P95 > rtt.P99 {
		t.Errorf("fleet rtt n=%d p50=%g p95=%g p99=%g, want calls in order p50<=p95<=p99", rtt.Count, rtt.P50, rtt.P95, rtt.P99)
	}
	for _, name := range sites {
		if h := merged.Histograms["ntcp.client."+name+".rtt.seconds"]; h.Count == 0 {
			t.Errorf("no per-site rtt histogram for %s", name)
		}
	}
	if merged.Counters["ntcp.server.executed"] <= 0 {
		t.Errorf("merged ntcp.server.executed = %d, want > 0", merged.Counters["ntcp.server.executed"])
	}
	if merged.Gauges["process.goroutines"] <= 0 {
		t.Errorf("merged process.goroutines = %g, want > 0", merged.Gauges["process.goroutines"])
	}
	if !r.Verdict.OK || len(r.Verdict.Rules) != 3 {
		t.Errorf("verdict ok=%v with %d rules, want ok with 3: %+v", r.Verdict.OK, len(r.Verdict.Rules), r.Verdict.Rules)
	}

	// The slowest round trip's trace is one a site served.
	if rtt.Exemplar == nil || rtt.Exemplar.TraceID == "" {
		t.Fatal("the fleet rtt histogram carries no exemplar")
	}
	found := 0
	for _, addr := range addrs {
		var spans []trace.SpanData
		getJSON(t, "http://"+addr+"/trace?trace="+rtt.Exemplar.TraceID, &spans)
		found += len(spans)
	}
	if found == 0 {
		t.Errorf("exemplar trace %s resolves to no span at either site", rtt.Exemplar.TraceID)
	}
}
