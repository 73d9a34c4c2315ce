// Package obs is the experiment-wide observability plane: an aggregation
// tier that turns every site daemon's island of per-process telemetry into
// one mergeable, queryable view of the whole experiment. The paper's MOST
// run was debugged by humans watching three sites at once (§3.4); at fleet
// scale (ROADMAP item 1) that judgment call has to become a service. An
// Aggregator scrapes (or is pushed) registry snapshots from every site and
// the coordinator, merges them exactly (telemetry.MergeSnapshots — bucket
// vectors add, quantiles recomputed, never averaged), tracks per-site
// health from scrape freshness, keeps bounded time-series rings for rate
// and sparkline computation, and continuously evaluates SLO rules whose
// breaches emit events, capture pprof profiles, and roll up into a
// machine-readable verdict.
//
// The Aggregator satisfies the internal/runtime Component contract
// (Start/Stop/Healthy), so it mounts in cmd/coordinator, under the most
// harness's supervisor, or standalone behind `mostctl top`.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
)

// Source is one telemetry producer the aggregator watches: a site daemon's
// /metrics URL, the coordinator's own registry via Fetch, or a purely
// push-fed name (both URL and Fetch nil).
type Source struct {
	// Name identifies the site in the fleet view and labels its series in
	// the Prometheus exposition.
	Name string
	// URL is the producer's /metrics endpoint (JSON telemetry.Snapshot).
	URL string
	// Fetch short-circuits HTTP for in-process producers (the most
	// harness hands the aggregator each site's registry directly).
	Fetch func() telemetry.Snapshot
	// PprofURL returns the producer's -pprof debug mux base (http://host:port)
	// at breach time, so a mux bound later is found; an SLO breach captures
	// a goroutine profile from the URL it returns.
	PprofURL func() string
}

// pushed reports a purely push-fed source. Nothing scrapes it, so it is not
// judged for staleness: a run pushes its roll-up once, when it ends, and
// the row keeps the state of that push.
func (s Source) pushed() bool { return s.URL == "" && s.Fetch == nil }

// Health states a site moves through, derived purely from scrape history.
const (
	StateUnknown  = "unknown"  // never scraped yet
	StateOK       = "ok"       // fresh successful scrape, or a push
	StateDegraded = "degraded" // scraped source's last success older than StaleAfter
	StateDown     = "down"     // most recent scrape attempt failed
)

// SiteHealth is one site's row in the fleet view.
type SiteHealth struct {
	Name       string    `json:"name"`
	State      string    `json:"state"`
	LastScrape time.Time `json:"last_scrape,omitzero"`
	Error      string    `json:"error,omitempty"`
	Scrapes    int64     `json:"scrapes"`
	Failures   int64     `json:"failures"`
	// Process self-metrics lifted from the site's snapshot (satellite:
	// every daemon exports process.* through telemetry.Handler).
	Goroutines    float64 `json:"goroutines,omitempty"`
	HeapBytes     float64 `json:"heap_bytes,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
}

// FleetView is the aggregator's merged, point-in-time picture of the
// experiment: per-site health, the exactly-merged fleet snapshot, counter
// rates over the ring window, and current SLO rule states.
type FleetView struct {
	TS     time.Time          `json:"ts"`
	Sites  []SiteHealth       `json:"sites"`
	Merged telemetry.Snapshot `json:"merged"`
	// Rates are per-second first-derivative estimates for every counter
	// (and histogram count, keyed name+".rate") over the ring window.
	Rates map[string]float64 `json:"rates,omitempty"`
	SLO   []RuleStatus       `json:"slo,omitempty"`
	// MergeError is set when per-site snapshots could not be merged
	// (mismatched histogram bounds) — the merged view then holds only the
	// sites that did merge.
	MergeError string `json:"merge_error,omitempty"`
}

// Config configures an Aggregator.
type Config struct {
	Sources []Source
	// Interval between scrape rounds; default 1s.
	Interval time.Duration
	// StaleAfter marks a scraped site degraded when its last successful
	// scrape is older than this; default 3×Interval. Pushed sources never
	// go stale.
	StaleAfter time.Duration
	// RingSize bounds the per-metric time-series ring; default 120 points
	// (two minutes at the default interval).
	RingSize int
	// SLOs are evaluated against the merged view every scrape round.
	SLOs []SLO
	// ProfileDir receives pprof captures on SLO breach; empty disables
	// capture.
	ProfileDir string
	// Registry receives the aggregator's own metrics and breach events
	// (obs.scrapes, obs.scrape_failures, obs.slo.breaches); nil means a
	// private registry.
	Registry *telemetry.Registry
	// Client performs scrapes and profile captures; default has a
	// per-request timeout tighter than Interval.
	Client *http.Client
}

// siteState is the aggregator's record of one source.
type siteState struct {
	src      Source
	last     telemetry.Snapshot
	lastOK   time.Time
	lastTry  time.Time
	lastErr  error
	scrapes  int64
	failures int64
	profiled map[string]bool // SLO rule name -> profile already captured
}

// ring is a bounded time series of one metric's merged value.
type ring struct {
	ts   []time.Time
	vs   []float64
	next int
	full bool
}

func (r *ring) push(ts time.Time, v float64) {
	r.ts[r.next], r.vs[r.next] = ts, v
	r.next++
	if r.next == len(r.ts) {
		r.next, r.full = 0, true
	}
}

// points returns the retained (ts, v) pairs oldest-first.
func (r *ring) points() ([]time.Time, []float64) {
	if !r.full {
		return r.ts[:r.next], r.vs[:r.next]
	}
	ts := make([]time.Time, 0, len(r.ts))
	vs := make([]float64, 0, len(r.vs))
	ts = append(ts, r.ts[r.next:]...)
	ts = append(ts, r.ts[:r.next]...)
	vs = append(vs, r.vs[r.next:]...)
	vs = append(vs, r.vs[:r.next]...)
	return ts, vs
}

// rate estimates the per-second slope over the points within window of
// now, by first/last difference. Returns 0 with fewer than two points.
func (r *ring) rate(now time.Time, window time.Duration) float64 {
	ts, vs := r.points()
	start := 0
	if window > 0 {
		for start < len(ts) && now.Sub(ts[start]) > window {
			start++
		}
	}
	ts, vs = ts[start:], vs[start:]
	if len(ts) < 2 {
		return 0
	}
	dt := ts[len(ts)-1].Sub(ts[0]).Seconds()
	if dt <= 0 {
		return 0
	}
	return (vs[len(vs)-1] - vs[0]) / dt
}

// Aggregator scrapes, merges, and serves. Satisfies runtime.Component.
type Aggregator struct {
	cfg    Config
	reg    *telemetry.Registry
	client *http.Client
	env    runtime.Env // stamps scrapes, staleness, verdicts and roll-ups

	mu      sync.Mutex
	sites   map[string]*siteState
	order   []string // registration order for stable fleet views
	rings   map[string]*ring
	slo     []*ruleState
	started bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// New builds an Aggregator; Start begins the scrape loop.
func New(cfg Config) *Aggregator { return newAggregator(runtime.Env{}, cfg) }

func newAggregator(env runtime.Env, cfg Config) *Aggregator {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 120
	}
	a := &Aggregator{
		cfg:    cfg,
		reg:    telemetry.OrNew(cfg.Registry),
		client: cfg.Client,
		env:    env,
		sites:  make(map[string]*siteState),
		rings:  make(map[string]*ring),
	}
	if a.client == nil {
		a.client = &http.Client{Timeout: cfg.Interval}
	}
	for _, s := range cfg.Sources {
		a.addSourceLocked(s)
	}
	for i := range cfg.SLOs {
		a.slo = append(a.slo, newRuleState(cfg.SLOs[i]))
	}
	return a
}

func (a *Aggregator) addSourceLocked(s Source) {
	if _, ok := a.sites[s.Name]; ok {
		return
	}
	a.sites[s.Name] = &siteState{src: s, profiled: make(map[string]bool)}
	a.order = append(a.order, s.Name)
}

// Start launches the periodic scrape loop.
func (a *Aggregator) Start(ctx context.Context) error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return errors.New("obs: aggregator already started")
	}
	a.started = true
	loopCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	a.cancel = cancel
	a.done = make(chan struct{})
	a.mu.Unlock()

	go func() {
		defer close(a.done)
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		a.ScrapeOnce(loopCtx)
		for {
			select {
			case <-loopCtx.Done():
				return
			case <-tick.C:
				a.ScrapeOnce(loopCtx)
			}
		}
	}()
	return nil
}

// Stop halts the scrape loop, waiting for an in-flight round.
func (a *Aggregator) Stop(ctx context.Context) error {
	a.mu.Lock()
	cancel, done := a.cancel, a.done
	a.mu.Unlock()
	if cancel == nil {
		return nil
	}
	cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("obs: stop: %w", ctx.Err())
	}
}

// Healthy reports nil while the scrape loop is live. Per-site health is
// data the fleet view reports, not this process's liveness.
func (a *Aggregator) Healthy() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started {
		return errors.New("obs: aggregator not started")
	}
	select {
	case <-a.done:
		return errors.New("obs: scrape loop exited")
	default:
		return nil
	}
}

// ScrapeOnce performs one full round: scrape every pull source, refresh
// rings, evaluate SLOs. Push-fed sources keep their last pushed snapshot.
// Exposed for tests and one-shot CLI use.
func (a *Aggregator) ScrapeOnce(ctx context.Context) {
	a.mu.Lock()
	targets := make([]*siteState, 0, len(a.order))
	for _, name := range a.order {
		targets = append(targets, a.sites[name])
	}
	a.mu.Unlock()

	type result struct {
		st   *siteState
		snap telemetry.Snapshot
		err  error
		ts   time.Time
	}
	results := make([]result, 0, len(targets))
	var (
		wg    sync.WaitGroup
		resMu sync.Mutex
	)
	for _, st := range targets {
		if st.src.pushed() {
			continue // keeps the snapshot of its push
		}
		wg.Add(1)
		go func(st *siteState) {
			defer wg.Done()
			snap, err := a.fetch(ctx, st.src)
			resMu.Lock()
			results = append(results, result{st: st, snap: snap, err: err, ts: a.env.Now()})
			resMu.Unlock()
		}(st)
	}
	wg.Wait()

	a.mu.Lock()
	for _, r := range results {
		r.st.lastTry = r.ts
		r.st.scrapes++
		if r.err != nil {
			r.st.failures++
			r.st.lastErr = r.err
			a.reg.Counter("obs.scrape_failures").Inc()
			continue
		}
		r.st.lastErr = nil
		r.st.lastOK = r.ts
		r.st.last = r.snap
		a.reg.Counter("obs.scrapes").Inc()
	}
	view := a.buildFleetLocked()
	a.refreshRingsLocked(view)
	view.Rates = a.ratesLocked(view.TS)
	a.evalSLOLocked(view)
	a.mu.Unlock()
}

// fetch pulls one source's snapshot.
func (a *Aggregator) fetch(ctx context.Context, src Source) (telemetry.Snapshot, error) {
	if src.Fetch != nil {
		return src.Fetch(), nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.URL, nil)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return telemetry.Snapshot{}, fmt.Errorf("status %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&snap); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("decode: %w", err)
	}
	return snap, nil
}

// Push ingests a pushed snapshot for the named site, registering it on
// first contact.
func (a *Aggregator) Push(name string, snap telemetry.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.addSourceLocked(Source{Name: name})
	st := a.sites[name]
	st.last = snap
	st.lastOK = a.env.Now()
	st.lastTry = st.lastOK
	st.lastErr = nil
	st.scrapes++
	a.reg.Counter("obs.pushes").Inc()
}

// Fleet returns the current fleet view (health recomputed against the
// clock; rates from the rings as of the last scrape round).
func (a *Aggregator) Fleet() FleetView {
	a.mu.Lock()
	defer a.mu.Unlock()
	view := a.buildFleetLocked()
	view.Rates = a.ratesLocked(view.TS)
	view.SLO = a.sloStatusLocked()
	return view
}

// Merged returns just the exactly-merged fleet snapshot.
func (a *Aggregator) Merged() telemetry.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buildFleetLocked().Merged
}

// buildFleetLocked merges the latest per-site snapshots and derives
// health. Caller holds a.mu.
func (a *Aggregator) buildFleetLocked() FleetView {
	now := a.env.Now()
	view := FleetView{TS: now}
	var merged telemetry.Snapshot
	var mergeErrs []error
	first := true
	for _, name := range a.order {
		st := a.sites[name]
		h := SiteHealth{
			Name:     name,
			State:    StateUnknown,
			Scrapes:  st.scrapes,
			Failures: st.failures,
		}
		if !st.lastOK.IsZero() {
			h.LastScrape = st.lastOK
			switch {
			case st.lastErr != nil:
				h.State = StateDown
			case !st.src.pushed() && now.Sub(st.lastOK) > a.cfg.StaleAfter:
				h.State = StateDegraded
			default:
				h.State = StateOK
			}
			h.Goroutines = st.last.Gauges["process.goroutines"]
			h.HeapBytes = st.last.Gauges["process.heap_bytes"]
			h.UptimeSeconds = st.last.Gauges["process.uptime.seconds"]
		} else if st.lastErr != nil {
			h.State = StateDown
		}
		if st.lastErr != nil {
			h.Error = st.lastErr.Error()
		}
		view.Sites = append(view.Sites, h)

		if st.lastOK.IsZero() {
			continue
		}
		if first {
			merged, first = st.last, false
			continue
		}
		m, err := telemetry.MergeSnapshots(merged, st.last)
		if err != nil {
			mergeErrs = append(mergeErrs, fmt.Errorf("%s: %w", name, err))
			a.reg.Counter("obs.merge_failures").Inc()
			continue
		}
		merged = m
	}
	view.Merged = merged
	if err := errors.Join(mergeErrs...); err != nil {
		view.MergeError = err.Error()
	}
	return view
}

// refreshRingsLocked appends this round's merged counter values (and
// histogram counts) to their rings. Caller holds a.mu.
func (a *Aggregator) refreshRingsLocked(view FleetView) {
	push := func(name string, v float64) {
		r, ok := a.rings[name]
		if !ok {
			r = &ring{ts: make([]time.Time, a.cfg.RingSize), vs: make([]float64, a.cfg.RingSize)}
			a.rings[name] = r
		}
		r.push(view.TS, v)
	}
	for name, v := range view.Merged.Counters {
		push(name, float64(v))
	}
	for name, h := range view.Merged.Histograms {
		push(name+".count", float64(h.Count))
	}
}

// ratesLocked computes per-second rates for every ringed metric over the
// full ring window. Caller holds a.mu.
func (a *Aggregator) ratesLocked(now time.Time) map[string]float64 {
	if len(a.rings) == 0 {
		return nil
	}
	rates := make(map[string]float64, len(a.rings))
	for name, r := range a.rings {
		rates[name] = r.rate(now, 0)
	}
	return rates
}

// Series returns the ringed values for one metric, oldest first — the
// sparkline feed for `mostctl top`.
func (a *Aggregator) Series(name string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.rings[name]
	if !ok {
		return nil
	}
	_, vs := r.points()
	return append([]float64(nil), vs...)
}

// SiteSnapshot returns the latest snapshot scraped or pushed for one
// site.
func (a *Aggregator) SiteSnapshot(name string) (telemetry.Snapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.sites[name]
	if !ok || st.lastOK.IsZero() {
		return telemetry.Snapshot{}, false
	}
	return st.last, true
}
