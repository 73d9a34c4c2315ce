package ogsi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"neesgrid/internal/telemetry"
)

// TestContainerRecordsDispatchTelemetry: every dispatched op leaves a
// request counter, a latency histogram, and — for faults — a per-code fault
// counter in the container registry.
func TestContainerRecordsDispatchTelemetry(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		var out map[string]string
		if err := f.client.Call(ctx, "echo", "echo", map[string]string{}, &out); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.client.Call(ctx, "echo", "fail", map[string]string{}, nil); err == nil {
		t.Fatal("fail op should fault")
	}

	snap := f.container.Telemetry().Snapshot()
	if got := snap.Counters["ogsi.echo.echo.requests"]; got != 3 {
		t.Fatalf("echo requests = %d, want 3", got)
	}
	if got := snap.Counters["ogsi.echo.fail.faults."+codePolicyReject]; got != 1 {
		t.Fatalf("fault counter = %d, want 1", got)
	}
	h := snap.Histograms["ogsi.echo.echo.seconds"]
	if h.Count != 3 || h.P99 <= 0 {
		t.Fatalf("latency histogram = %+v", h)
	}
	if len(snap.Events) == 0 {
		t.Fatal("fault should be logged as an event")
	}
}

// TestMetricsHTTPEndpoint: /metrics serves the registry snapshot as JSON
// without GSI signing.
func TestMetricsHTTPEndpoint(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	var out map[string]string
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + f.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad metrics JSON: %v", err)
	}
	if snap.Counters["ogsi.echo.echo.requests"] < 1 {
		t.Fatalf("metrics endpoint counters = %v", snap.Counters)
	}

	post, err := http.Post("http://"+f.addr+"/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d", post.StatusCode)
	}
}

// TestMetricsSDE: the computed "metrics" SDE is remotely inspectable via
// FindServiceData, stays at version 1, and never becomes "last changed".
func TestMetricsSDE(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	ctx := context.Background()
	var out map[string]string
	if err := f.client.Call(ctx, "echo", "echo", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}

	sdes, err := f.client.FindServiceData(ctx, "echo", "metrics")
	if err != nil {
		t.Fatal(err)
	}
	if len(sdes) != 1 || sdes[0].Name != "metrics" || sdes[0].Version != 1 {
		t.Fatalf("metrics SDE = %+v", sdes)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(sdes[0].Value, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["ogsi.echo.echo.requests"] < 1 {
		t.Fatalf("metrics SDE counters = %v", snap.Counters)
	}

	// Reading metrics must not disturb change tracking.
	svc, _ := f.container.Service("echo")
	_ = svc.SDEs.Set("status", "running")
	last, ok := svc.SDEs.LastChanged()
	if !ok || last.Name != "status" {
		t.Fatalf("lastChanged = %+v, want status", last)
	}
}

// TestUseTelemetrySharesRegistry: a site can hand the container a shared
// registry so service- and transport-level metrics land together.
func TestUseTelemetrySharesRegistry(t *testing.T) {
	shared := telemetry.NewRegistry()
	f := newFabric(t, func(c *Container) {
		c.UseTelemetry(shared)
		c.AddService(echoService())
	})
	var out map[string]string
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}
	if shared.Counter("ogsi.echo.echo.requests").Value() != 1 {
		t.Fatal("shared registry did not receive container metrics")
	}
	if f.container.Telemetry() != shared {
		t.Fatal("container not using shared registry")
	}
}

// TestMetricsPrometheusNegotiation: a scraper that Accepts text/plain gets
// the Prometheus exposition format; everyone else keeps getting JSON.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	var out map[string]string
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, "http://"+f.addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE ogsi_echo_echo_requests_total counter",
		"ogsi_echo_echo_seconds_bucket{le=\"+Inf\"} 1",
		"ogsi_echo_echo_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// No Accept header: JSON as before.
	plain, err := http.Get("http://" + f.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	if ct := plain.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q", ct)
	}
}
