package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neesgrid/internal/trace"
)

// TestScrapeCountsRingEvictions overflows a 4-slot event log and a 4-slot
// span recorder and reads each eviction count from a scrape: a wrapped ring
// is told from a quiet one at /metrics.
func TestScrapeCountsRingEvictions(t *testing.T) {
	reg := NewRegistry()
	reg.events = NewEventLog(4)
	rec := trace.NewRecorder(4)
	reg.GaugeFunc("trace.spans.dropped", func() float64 { return float64(rec.Dropped()) })
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()
	scrape := func() Snapshot {
		t.Helper()
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	quiet := scrape()
	for _, name := range []string{"telemetry.events.dropped", "trace.spans.dropped"} {
		if v, ok := quiet.Gauges[name]; !ok || v != 0 {
			t.Fatalf("quiet rings: %s = %v (present %v), want 0", name, v, ok)
		}
	}

	tracer := trace.NewTracer(nil, "site", rec)
	for i := 0; i < 10; i++ {
		reg.Event("test", "tick", nil)
		_, span := tracer.Start(context.Background(), "step", trace.KindServer)
		span.End()
	}
	wrapped := scrape()
	if got := wrapped.Gauges["telemetry.events.dropped"]; got != 6 {
		t.Errorf("telemetry.events.dropped = %v, want 6", got)
	}
	if got := wrapped.Gauges["trace.spans.dropped"]; got != 6 {
		t.Errorf("trace.spans.dropped = %v, want 6", got)
	}
	if len(wrapped.Events) != 4 {
		t.Errorf("%d events retained, want 4", len(wrapped.Events))
	}
}

func TestHandlerServesJSONByDefault(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("nsds.tier.dropped.hub").Add(7)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["nsds.tier.dropped.hub"] != 7 {
		t.Fatalf("counter = %d, want 7", snap.Counters["nsds.tier.dropped.hub"])
	}
}

func TestHandlerServesPrometheusOnAccept(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("nsds.tier.dropped.relay").Add(3)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "nsds_tier_dropped_relay_total 3") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
}

// TestRegistryExportsProcessSelfMetrics: every registry carries the
// process gauges, read at snapshot time with no handler refreshing them.
func TestRegistryExportsProcessSelfMetrics(t *testing.T) {
	snap := NewRegistry().Snapshot()
	if snap.Gauges["process.goroutines"] < 1 {
		t.Fatalf("process.goroutines = %v, want >= 1", snap.Gauges["process.goroutines"])
	}
	if snap.Gauges["process.heap_bytes"] <= 0 {
		t.Fatalf("process.heap_bytes = %v, want > 0", snap.Gauges["process.heap_bytes"])
	}
	if up, ok := snap.Gauges["process.uptime.seconds"]; !ok || up < 0 {
		t.Fatalf("process.uptime.seconds = %v (present=%v)", up, ok)
	}
}

func TestHandlerRejectsNonGET(t *testing.T) {
	ts := httptest.NewServer(Handler(NewRegistry()))
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
