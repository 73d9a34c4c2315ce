// Package telemetry is the observability substrate of the stack: a
// dependency-free metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms with quantile snapshots) plus a bounded in-memory
// structured event log. Every service wires into a Registry so that a
// distributed experiment can be observed while it runs — the capability the
// paper's §3.4 account of the MOST public run leans on (NSDS streaming,
// per-step monitoring, post-hoc diagnosis of the step-1493 failure) — and so
// that performance work has latency histograms to steer by.
//
// All hot-path operations (Counter.Inc, Histogram.Observe) are lock-free;
// the registry mutex is only taken when a metric is first created or a
// snapshot is taken.
package telemetry

import (
	"encoding/hex"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is ignored — counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value (queue depth, open connections).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the upper bounds (seconds) used when a histogram
// is created without explicit buckets: 100 µs to 30 s, roughly 1-2.5-5 per
// decade — wide enough to cover a LAN control loop and a congested WAN step.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram of float64 observations (seconds,
// for latencies). Observations are lock-free; quantiles are estimated at
// snapshot time by linear interpolation within the bucket that holds the
// target rank.
type Histogram struct {
	bounds []float64      // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
	// ex is the retained exemplar: the trace of the slowest recent
	// observation (see ObserveExemplar). Best-effort and lock-free.
	ex atomic.Pointer[Exemplar]
}

// Exemplar links a histogram to the trace of its slowest recent
// observation, so a fleet-wide p99 resolves directly to a `mostctl trace`
// timeline of the offending step.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	TS      time.Time `json:"ts"`
}

// ExemplarTTL bounds how long an exemplar shields itself from replacement:
// after this long even a faster observation takes over, so the exemplar
// tracks the slowest *recent* observation rather than the all-time worst.
const ExemplarTTL = time.Minute

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when traceID is non-empty, offers
// it as the histogram's exemplar. The exemplar is replaced when the new
// observation is at least as slow as the retained one, or when the
// retained one has aged past ExemplarTTL. The fast path (a value smaller
// than a fresh exemplar) costs one atomic load and one clock read on top
// of Observe; replacement allocates.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	for {
		cur := h.ex.Load()
		if !supersedes(v, cur) {
			return
		}
		if h.ex.CompareAndSwap(cur, &Exemplar{TraceID: traceID, Value: v, TS: time.Now()}) {
			return
		}
	}
}

// supersedes reports whether an observation of v replaces the retained
// exemplar cur.
func supersedes(v float64, cur *Exemplar) bool {
	return cur == nil || v >= cur.Value || time.Since(cur.TS) >= ExemplarTTL
}

// ObserveDurationExemplar is ObserveExemplar for a duration in seconds and
// a trace ID still in binary (all-zero means none): the step path observes
// every round trip, and the ID is only worth hex-encoding for the rare
// observation that is retained.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID [16]byte) {
	v := d.Seconds()
	if traceID == ([16]byte{}) || !supersedes(v, h.ex.Load()) {
		h.Observe(v)
		return
	}
	h.ObserveExemplar(v, hex.EncodeToString(traceID[:]))
}

// BucketCount is one cumulative histogram bucket: the number of
// observations less than or equal to the upper bound LE.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time summary of a histogram. It carries
// the full cumulative bucket vector, so two snapshots with identical bounds
// can be merged exactly (see MergeHistogramSnapshots) and quantiles can be
// recomputed from the merged vector — never averaged.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets are the cumulative counts at each finite upper bound. The
	// implicit +Inf bucket is Count (and is omitted here so the snapshot
	// stays encodable by encoding/json, which rejects infinities).
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Exemplar is the trace of the slowest recent observation, when the
	// histogram was fed through ObserveExemplar.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot summarizes the histogram. Quantiles are bucket-interpolated; the
// overflow (+Inf) bucket is clamped to the observed maximum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.count.Load()
	if n == 0 {
		return HistogramSnapshot{}
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	snap := HistogramSnapshot{
		Count: n,
		Sum:   math.Float64frombits(h.sum.Load()),
		Min:   math.Float64frombits(h.min.Load()),
		Max:   math.Float64frombits(h.max.Load()),
	}
	snap.Mean = snap.Sum / float64(n)
	snap.P50 = bucketQuantile(h.bounds, counts, n, snap.Min, snap.Max, 0.50)
	snap.P95 = bucketQuantile(h.bounds, counts, n, snap.Min, snap.Max, 0.95)
	snap.P99 = bucketQuantile(h.bounds, counts, n, snap.Min, snap.Max, 0.99)
	snap.Buckets = make([]BucketCount, len(h.bounds))
	var cum int64
	for i, b := range h.bounds {
		cum += counts[i]
		snap.Buckets[i] = BucketCount{LE: b, Count: cum}
	}
	snap.Exemplar = h.ex.Load()
	return snap
}

// bucketQuantile interpolates quantile q from a per-bucket count vector
// (len(bounds)+1, the last entry being the +Inf overflow). It depends only
// on (bounds, counts, min, max), so a quantile computed from a merged
// snapshot's bucket vector is bit-identical to one computed from a single
// histogram fed the union of observations — the property the obs
// aggregator's exact fleet-wide percentiles rest on.
func bucketQuantile(bounds []float64, counts []int64, n int64, min, max float64, q float64) float64 {
	rank := q * float64(n)
	var seen float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo := min
		if i > 0 && bounds[i-1] > lo {
			// The bucket's lower bound, but never below the observed
			// minimum — with all mass in one high bucket (e.g. a single
			// observation, or everything in the +Inf overflow) the bucket
			// edge would otherwise drag the estimate under Min.
			lo = bounds[i-1]
		}
		hi := max
		if i < len(bounds) && bounds[i] < hi {
			hi = bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		if seen+float64(c) >= rank {
			frac := (rank - seen) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += float64(c)
	}
	return max
}

// perBucket reconstructs the per-bucket count vector (including the +Inf
// overflow) and bounds from a snapshot's cumulative buckets.
func (s HistogramSnapshot) perBucket() (bounds []float64, counts []int64) {
	bounds = make([]float64, len(s.Buckets))
	counts = make([]int64, len(s.Buckets)+1)
	var prev int64
	for i, b := range s.Buckets {
		bounds[i] = b.LE
		counts[i] = b.Count - prev
		prev = b.Count
	}
	counts[len(s.Buckets)] = s.Count - prev // +Inf overflow
	return bounds, counts
}

// Quantile recomputes quantile q from the snapshot's bucket vector using
// the same interpolation as Histogram.Snapshot. Zero-count snapshots
// return 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	bounds, counts := s.perBucket()
	return bucketQuantile(bounds, counts, s.Count, s.Min, s.Max, q)
}

// Event is one structured event-log entry.
type Event struct {
	TS        time.Time      `json:"ts"`
	Component string         `json:"component"`
	Event     string         `json:"event"`
	Fields    map[string]any `json:"fields,omitempty"`
}

// EventLog is a bounded ring buffer of events: cheap to append, and old
// entries are overwritten rather than growing without bound — the post-hoc
// diagnosis trail for a long run.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	dropped int64
	clock   func() time.Time
}

// NewEventLog returns a ring holding the last capacity events (min 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, capacity), clock: time.Now}
}

// Record appends an event, evicting the oldest when full. The fields map
// is copied before it is retained, so a caller that reuses or keeps
// mutating its map after recording cannot race the log's readers or
// retroactively rewrite history.
func (l *EventLog) Record(component, event string, fields map[string]any) {
	var copied map[string]any
	if len(fields) > 0 {
		copied = make(map[string]any, len(fields))
		for k, v := range fields {
			copied[k] = v
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wrapped {
		l.dropped++
	}
	l.ring[l.next] = Event{TS: l.clock(), Component: component, Event: event, Fields: copied}
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.wrapped = true
	}
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.wrapped {
		return append([]Event(nil), l.ring[:l.next]...)
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Registry is a named collection of metrics plus an event log. Metric
// lookups intern by name, so call sites may re-resolve per use or cache the
// returned pointer; both are safe and the cached pointer is lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *EventLog
}

// DefaultEventCapacity bounds a registry's event ring.
const DefaultEventCapacity = 512

// NewRegistry returns an empty registry with a DefaultEventCapacity ring.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   NewEventLog(DefaultEventCapacity),
	}
}

// OrNew returns r, or a fresh private registry when r is nil — the idiom
// components use so telemetry is always safe to record, wired or not.
func OrNew(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return NewRegistry()
}

// Counter interns and returns the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns and returns the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns and returns the named histogram. Bounds apply only on
// first creation; omit them for DefaultLatencyBuckets.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Event appends to the registry's event log.
func (r *Registry) Event(component, event string, fields map[string]any) {
	r.events.Record(component, event, fields)
}

// Events exposes the registry's event log.
func (r *Registry) Events() *EventLog { return r.events }

// Snapshot is a point-in-time JSON-ready view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Snapshot captures every metric and the retained events.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
		Events:     r.events.Events(),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		snap.Histograms[k] = h.Snapshot()
	}
	return snap
}

// CounterNames returns the sorted counter names of a snapshot — the stable
// iteration order pretty-printers want.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the sorted histogram names of a snapshot.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
