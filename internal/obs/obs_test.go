package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
)

// testClock is a settable clock for deterministic health/rate tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1000, 0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// siteRegistry builds a registry with one counter and one RTT histogram.
func siteRegistry(counter int64, rtts ...float64) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("ntcp.server.executed").Add(counter)
	h := reg.Histogram("ntcp.client.rtt.seconds")
	for _, v := range rtts {
		h.Observe(v)
	}
	return reg
}

func TestAggregatorMergesFetchSources(t *testing.T) {
	ra := siteRegistry(3, 0.001, 0.002)
	rb := siteRegistry(4, 0.004, 0.040)
	clk := newTestClock()
	a := New(Config{
		Sources: []Source{
			{Name: "site-a", Fetch: ra.Snapshot},
			{Name: "site-b", Fetch: rb.Snapshot},
		},
		now: clk.now,
	})
	a.ScrapeOnce(context.Background())

	view := a.Fleet()
	if len(view.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(view.Sites))
	}
	for _, s := range view.Sites {
		if s.State != StateOK {
			t.Fatalf("site %s state = %s, want ok", s.Name, s.State)
		}
	}
	if got := view.Merged.Counters["ntcp.server.executed"]; got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	h := view.Merged.Histograms["ntcp.client.rtt.seconds"]
	if h.Count != 4 || h.Min != 0.001 || h.Max != 0.040 {
		t.Fatalf("merged histogram wrong: %+v", h)
	}

	// Merged quantiles equal a union-fed histogram's — through the
	// aggregator, end to end.
	union := siteRegistry(0, 0.001, 0.002, 0.004, 0.040).Snapshot().Histograms["ntcp.client.rtt.seconds"]
	if h.P99 != union.P99 || h.P50 != union.P50 {
		t.Fatalf("aggregated quantiles diverge from union: %v/%v vs %v/%v", h.P50, h.P99, union.P50, union.P99)
	}
}

func TestAggregatorScrapesHTTPAndTracksHealth(t *testing.T) {
	reg := siteRegistry(5, 0.01)
	healthy := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		telemetry.Handler(reg).ServeHTTP(w, r)
	}))
	defer ts.Close()

	clk := newTestClock()
	a := New(Config{
		Sources:    []Source{{Name: "remote", URL: ts.URL}},
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		now:        clk.now,
	})
	a.ScrapeOnce(context.Background())
	view := a.Fleet()
	if view.Sites[0].State != StateOK {
		t.Fatalf("state = %s, want ok (err=%s)", view.Sites[0].State, view.Sites[0].Error)
	}
	if view.Sites[0].Goroutines < 1 {
		t.Fatalf("process self-metrics not lifted into health: %+v", view.Sites[0])
	}

	// A failing scrape flips the site down and keeps the last snapshot.
	healthy = false
	clk.advance(time.Second)
	a.ScrapeOnce(context.Background())
	view = a.Fleet()
	if view.Sites[0].State != StateDown || view.Sites[0].Error == "" {
		t.Fatalf("state = %s err=%q, want down with error", view.Sites[0].State, view.Sites[0].Error)
	}
	if view.Merged.Counters["ntcp.server.executed"] != 5 {
		t.Fatal("merged view should retain the last good snapshot")
	}

	// Recovery, then silence past StaleAfter ⇒ degraded.
	healthy = true
	clk.advance(time.Second)
	a.ScrapeOnce(context.Background())
	if v := a.Fleet(); v.Sites[0].State != StateOK {
		t.Fatalf("state after recovery = %s", v.Sites[0].State)
	}
	clk.advance(10 * time.Second)
	if v := a.Fleet(); v.Sites[0].State != StateDegraded {
		t.Fatalf("state after staleness = %s, want degraded", v.Sites[0].State)
	}
}

func TestAggregatorRatesFromRing(t *testing.T) {
	var steps int64
	reg := telemetry.NewRegistry()
	clk := newTestClock()
	a := New(Config{
		Sources: []Source{{Name: "coord", Fetch: func() telemetry.Snapshot {
			reg.Counter("coord.steps").Add(steps)
			steps = 0
			return reg.Snapshot()
		}}},
		Interval: time.Second,
		now:      clk.now,
	})
	// 10 steps/second for 5 scrape rounds.
	for i := 0; i < 5; i++ {
		steps = 10
		a.ScrapeOnce(context.Background())
		clk.advance(time.Second)
	}
	view := a.Fleet()
	rate := view.Rates["coord.steps"]
	if rate < 9 || rate > 11 {
		t.Fatalf("coord.steps rate = %g, want ~10/s", rate)
	}
	if vs := a.Series("coord.steps"); len(vs) != 5 || vs[4] != 50 {
		t.Fatalf("series = %v, want 5 points ending at 50", vs)
	}
}

func TestAggregatorPush(t *testing.T) {
	clk := newTestClock()
	a := New(Config{now: clk.now})
	snap := siteRegistry(9, 0.002).Snapshot()
	a.Push("pushed-site", snap)

	view := a.Fleet()
	if len(view.Sites) != 1 || view.Sites[0].Name != "pushed-site" || view.Sites[0].State != StateOK {
		t.Fatalf("pushed site not registered healthy: %+v", view.Sites)
	}
	if view.Merged.Counters["ntcp.server.executed"] != 9 {
		t.Fatalf("pushed snapshot not merged: %+v", view.Merged.Counters)
	}

	// A run pushes its roll-up once, when it ends: scrape rounds long past
	// StaleAfter (3 s by default) leave the row as the push left it.
	for i := 0; i < 3; i++ {
		clk.advance(10 * time.Second)
		a.ScrapeOnce(context.Background())
	}
	if s := a.Fleet().Sites[0]; s.State != StateOK {
		t.Fatalf("pushed site %s a minute after its push, want ok", s.State)
	}
}

func TestMuxEndpoints(t *testing.T) {
	ra := siteRegistry(3, 0.001)
	rb := siteRegistry(4, 0.050)
	clk := newTestClock()
	a := New(Config{
		Sources: []Source{
			{Name: "site-a", Fetch: ra.Snapshot},
			{Name: "site-b", Fetch: rb.Snapshot},
		},
		now: clk.now,
	})
	a.ScrapeOnce(context.Background())
	srv := httptest.NewServer(a.Mux())
	defer srv.Close()

	// /fleet
	var view FleetView
	getJSON(t, srv.URL+"/fleet", &view)
	if len(view.Sites) != 2 || view.Merged.Counters["ntcp.server.executed"] != 7 {
		t.Fatalf("fleet view wrong: %+v", view)
	}

	// /metrics JSON default is the merged snapshot (mostctl metrics -url
	// compatible).
	var snap telemetry.Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.Counters["ntcp.server.executed"] != 7 {
		t.Fatalf("merged /metrics JSON wrong: %+v", snap.Counters)
	}

	// /metrics Prometheus contains fleet-wide and per-site series.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"ntcp_server_executed_total 7",
		`ntcp_server_executed_total{site="site-a"} 3`,
		`ntcp_server_executed_total{site="site-b"} 4`,
		`obs_site_up{site="site-a"} 1`,
		"ntcp_client_rtt_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}

	// /series
	var series struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, srv.URL+"/series?metric=ntcp.server.executed", &series)
	if len(series.Values) != 1 || series.Values[0] != 7 {
		t.Fatalf("series wrong: %+v", series)
	}

	// The surface is read-only: no HTTP request adds a source or a
	// snapshot to the roll-up.
	b, _ := json.Marshal(siteRegistry(5).Snapshot())
	presp, err := http.Post(srv.URL+"/push?site=site-c", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /push status = %d, want 404", presp.StatusCode)
	}
	if view := a.Fleet(); len(view.Sites) != 2 || view.Merged.Counters["ntcp.server.executed"] != 7 {
		t.Fatalf("a POST changed the roll-up: %d sites, executed %d", len(view.Sites), view.Merged.Counters["ntcp.server.executed"])
	}
}

func TestAggregatorComponentLifecycle(t *testing.T) {
	reg := siteRegistry(1, 0.001)
	a := New(Config{
		Sources:  []Source{{Name: "s", Fetch: reg.Snapshot}},
		Interval: 10 * time.Millisecond,
	})
	if err := a.Healthy(); err == nil {
		t.Fatal("unstarted aggregator should be unhealthy")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Healthy(); err != nil {
		t.Fatalf("started aggregator unhealthy: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Merged().Counters["ntcp.server.executed"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("scrape loop never merged the source")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
	defer stopCancel()
	if err := a.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}
	if err := a.Healthy(); err == nil {
		t.Fatal("stopped aggregator should report unhealthy")
	}
}

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
