package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/runtime"
	"neesgrid/internal/runtime/envtest"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

func TestSLOValidate(t *testing.T) {
	good := []SLO{
		{Name: "rtt", Kind: KindQuantile, Metric: "ntcp.client.rtt.seconds", Q: 0.99, Max: 0.1},
		{Name: "drops", Kind: KindRate, Metric: "nsds.sub.dropped", Max: 10},
		{Name: "heap", Kind: KindGauge, Metric: "process.heap_bytes", Max: 1e9},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("valid rule rejected: %v", err)
		}
	}
	bad := []SLO{
		{Kind: KindRate, Metric: "x", Max: 1},                      // no name
		{Name: "n", Kind: KindQuantile, Metric: "x", Q: 0, Max: 1}, // q out of range
		{Name: "n", Kind: "p99", Metric: "x", Max: 1},              // unknown kind
		{Name: "n", Kind: KindGauge, Max: 1},                       // no metric
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad rule %d accepted: %+v", i, s)
		}
	}
}

func TestLoadSLOFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, []byte(`[
		{"name":"step-p99","kind":"quantile","metric":"coord.step.seconds","q":0.99,"max":0.5},
		{"name":"drop-rate","kind":"rate","metric":"nsds.sub.dropped","max":100,"window_seconds":30}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, err := LoadSLOFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Q != 0.99 || rules[1].WindowSeconds != 30 {
		t.Fatalf("rules parsed wrong: %+v", rules)
	}
	if err := os.WriteFile(path, []byte(`[{"name":"x","kind":"nope","metric":"m","max":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSLOFile(path); err == nil {
		t.Fatal("invalid rule file accepted")
	}
}

func TestSLOQuantileBreachEmitsEventAndExemplar(t *testing.T) {
	reg := telemetry.NewRegistry()
	traceID := trace.NewTraceID().String()
	h := reg.Histogram("ntcp.client.rtt.seconds")
	h.ObserveExemplar(0.001, "fast-trace")
	h.ObserveExemplar(2.5, traceID) // slow outlier carries the exemplar

	clk := envtest.NewClock(time.Unix(1000, 0))
	a := newAggregator(runtime.Env{Clock: clk}, Config{
		Sources: []Source{{Name: "site", Fetch: reg.Snapshot}},
		SLOs: []SLO{
			{Name: "rtt-p99", Kind: KindQuantile, Metric: "ntcp.client.rtt.seconds", Q: 0.99, Max: 0.1},
			{Name: "absent", Kind: KindQuantile, Metric: "no.such.metric", Q: 0.5, Max: 1},
		},
	})
	a.ScrapeOnce(context.Background())

	v := a.Verdict()
	if v.OK {
		t.Fatal("verdict should not be OK after a breach")
	}
	var rtt, absent RuleStatus
	for _, r := range v.Rules {
		switch r.Name {
		case "rtt-p99":
			rtt = r
		case "absent":
			absent = r
		}
	}
	if rtt.State != "breach" || rtt.Breaches != 1 {
		t.Fatalf("rtt rule: %+v", rtt)
	}
	if rtt.ExemplarTrace != traceID {
		t.Fatalf("breach exemplar = %q, want the slow observation's trace %q", rtt.ExemplarTrace, traceID)
	}
	if absent.State != "no_data" {
		t.Fatalf("absent metric rule state = %s, want no_data", absent.State)
	}

	// The breach shows up in the aggregator's own registry.
	snap := a.Registry().Snapshot()
	if snap.Counters["obs.slo.breaches"] != 1 {
		t.Fatalf("obs.slo.breaches = %d", snap.Counters["obs.slo.breaches"])
	}
	found := false
	for _, e := range snap.Events {
		if e.Event == "slo-breach" && e.Fields["rule"] == "rtt-p99" {
			found = true
		}
	}
	if !found {
		t.Fatal("slo-breach event not recorded")
	}
}

func TestSLORecoveryKeepsBreachHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := envtest.NewClock(time.Unix(1000, 0))
	var drops int64 = 1000
	a := newAggregator(runtime.Env{Clock: clk}, Config{
		Sources: []Source{{Name: "hub", Fetch: func() telemetry.Snapshot {
			reg.Counter("nsds.sub.dropped").Add(drops)
			drops = 0
			return reg.Snapshot()
		}}},
		Interval: time.Second,
		SLOs:     []SLO{{Name: "drops", Kind: KindRate, Metric: "nsds.sub.dropped", Max: 50}},
	})
	// Round 1 seeds the ring; round 2 sees 1000 drops over 1s ⇒ breach.
	a.ScrapeOnce(context.Background())
	clk.Advance(time.Second)
	drops = 1000
	a.ScrapeOnce(context.Background())
	if v := a.Verdict(); v.OK || v.Rules[0].State != "breach" {
		t.Fatalf("expected live breach, got %+v", v.Rules[0])
	}
	// Rates recover to zero; dashboard shows ok but the verdict still
	// fails the run.
	for i := 0; i < 60; i++ {
		clk.Advance(time.Second)
		a.ScrapeOnce(context.Background())
	}
	v := a.Verdict()
	if v.Rules[0].State != "ok" {
		t.Fatalf("state after recovery = %s, want ok", v.Rules[0].State)
	}
	if v.OK || v.Rules[0].Breaches == 0 {
		t.Fatalf("verdict must remember the breach: %+v", v.Rules[0])
	}
}

func TestSLOBreachCapturesProfile(t *testing.T) {
	// The -pprof debug mux of the "site".
	reg := telemetry.NewRegistry()
	dbg := httptest.NewServer(runtime.DebugMux(runtime.NewSupervisor("site"), reg, nil))
	defer dbg.Close()

	reg.Histogram("coord.step.seconds").Observe(10)
	dir := t.TempDir()
	clk := envtest.NewClock(time.Unix(1000, 0))
	a := newAggregator(runtime.Env{Clock: clk}, Config{
		Sources:    []Source{{Name: "coord", Fetch: reg.Snapshot, PprofURL: func() string { return dbg.URL }}},
		SLOs:       []SLO{{Name: "step-p99", Kind: KindQuantile, Metric: "coord.step.seconds", Q: 0.99, Max: 1}},
		ProfileDir: dir,
		Client:     &http.Client{Timeout: 5 * time.Second},
	})
	a.ScrapeOnce(context.Background())

	// Profile capture is async; poll for the rule to record it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := a.Verdict()
		if len(v.Rules) == 1 && len(v.Rules[0].Profiles) > 0 {
			b, err := os.ReadFile(v.Rules[0].Profiles[0])
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(b), "goroutine") {
				t.Fatalf("captured profile does not look like a goroutine dump:\n%.200s", b)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("profile never captured: %+v", a.Verdict().Rules)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSLOProfileFailureRecordsEvent(t *testing.T) {
	// A site whose debug mux has no pprof endpoint: every capture fails.
	dbg := httptest.NewServer(http.NotFoundHandler())
	defer dbg.Close()

	reg := telemetry.NewRegistry()
	reg.Histogram("coord.step.seconds").Observe(10)
	clk := envtest.NewClock(time.Unix(1000, 0))
	a := newAggregator(runtime.Env{Clock: clk}, Config{
		Sources:    []Source{{Name: "coord", Fetch: reg.Snapshot, PprofURL: func() string { return dbg.URL }}},
		SLOs:       []SLO{{Name: "step-p99", Kind: KindQuantile, Metric: "coord.step.seconds", Q: 0.99, Max: 1}},
		ProfileDir: t.TempDir(),
		Client:     &http.Client{Timeout: 5 * time.Second},
	})
	a.ScrapeOnce(context.Background())

	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range a.Registry().Snapshot().Events {
			if e.Event == "slo-profile-captured" {
				t.Fatalf("capture reported success: %+v", e.Fields)
			}
			if e.Event == "slo-profile-failed" {
				if e.Fields["rule"] != "step-p99" || e.Fields["site"] != "coord" || e.Fields["error"] == "" {
					t.Fatalf("slo-profile-failed fields = %+v", e.Fields)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("failed profile capture left no event")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Registry exposes the aggregator's own metrics/events registry.
func (a *Aggregator) Registry() *telemetry.Registry { return a.reg }
