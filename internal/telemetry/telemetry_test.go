package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := r.Counter("reqs").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(3)
	g.Add(2.5)
	if got := r.Gauge("depth").Value(); got != 5.5 {
		t.Fatalf("gauge = %g, want 5.5", got)
	}
}

func TestRegistryInternsByName(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("counter not interned")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram not interned")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not interned")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(nil)
	// 1000 observations uniform on (0, 1]: quantiles should land near their
	// nominal values despite bucketing.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-0.5005) > 1e-9 {
		t.Fatalf("mean = %g", s.Mean)
	}
	if s.Min != 0.001 || s.Max != 1.0 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	checks := []struct {
		got, want, tol float64
	}{
		{s.P50, 0.5, 0.1},
		{s.P95, 0.95, 0.1},
		{s.P99, 0.99, 0.05},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("quantile = %g, want %g±%g", c.got, c.want, c.tol)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramOverflowBucketClampsToMax(t *testing.T) {
	h := newHistogram([]float64{0.01})
	h.Observe(5) // beyond every bound: overflow bucket
	h.Observe(7)
	s := h.Snapshot()
	if s.P99 > s.Max {
		t.Fatalf("p99 %g exceeds max %g", s.P99, s.Max)
	}
	if s.Max != 7 {
		t.Fatalf("max = %g", s.Max)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var s HistogramSnapshot = newHistogram(nil).Snapshot()
	if s.Count != 0 || s.P99 != 0 || s.Min != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestEventLogRingEviction(t *testing.T) {
	l := NewEventLog(3)
	fixed := time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)
	l.SetClock(func() time.Time { return fixed })
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		l.Record("test", name, nil)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, want := range []string{"c", "d", "e"} {
		if evs[i].Event != want {
			t.Fatalf("events = %v", evs)
		}
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("ntcp.executed").Add(3)
	r.Histogram("rtt.seconds").Observe(0.042)
	r.Event("ntcp", "executed", map[string]any{"name": "step-1"})
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["ntcp.executed"] != 3 {
		t.Fatalf("counters = %v", back.Counters)
	}
	if back.Histograms["rtt.seconds"].Count != 1 {
		t.Fatalf("histograms = %v", back.Histograms)
	}
	if len(back.Events) != 1 || back.Events[0].Event != "executed" {
		t.Fatalf("events = %v", back.Events)
	}
}

func TestOrNew(t *testing.T) {
	r := NewRegistry()
	if OrNew(r) != r {
		t.Fatal("OrNew should pass through non-nil registries")
	}
	if OrNew(nil) == nil {
		t.Fatal("OrNew(nil) should allocate")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(float64(i) / 500)
				r.Gauge("g").Add(1)
				r.Event("w", "tick", nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must be safe too
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if r.Counter("c").Value() != 4000 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
	if s := r.Histogram("h").Snapshot(); s.Count != 4000 {
		t.Fatalf("histogram count = %d", s.Count)
	}
}

func TestSnapshotSortedNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Histogram("z").Observe(1)
	r.Histogram("y").Observe(1)
	s := r.Snapshot()
	cn := s.CounterNames()
	if len(cn) != 2 || cn[0] != "a" || cn[1] != "b" {
		t.Fatalf("counter names = %v", cn)
	}
	hn := s.HistogramNames()
	if len(hn) != 2 || hn[0] != "y" || hn[1] != "z" {
		t.Fatalf("histogram names = %v", hn)
	}
}

func TestEventLogRecordCopiesFields(t *testing.T) {
	l := NewEventLog(8)
	fields := map[string]any{"step": 1, "site": "uiuc"}
	l.Record("coord", "fault", fields)
	fields["step"] = 99
	delete(fields, "site")
	evs := l.Events()
	if len(evs) != 1 {
		t.Fatalf("retained %d events", len(evs))
	}
	if evs[0].Fields["step"] != 1 || evs[0].Fields["site"] != "uiuc" {
		t.Fatalf("recorded fields were mutated through the caller's map: %v", evs[0].Fields)
	}

	// Under -race: a caller that keeps writing its map after recording must
	// not race readers of the log.
	shared := map[string]any{"n": 0}
	l.Record("coord", "reuse", shared)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			shared["n"] = i
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			for _, ev := range l.Events() {
				_ = ev.Fields["n"]
			}
		}
	}()
	wg.Wait()
}

func TestHistogramQuantileSingleObservation(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(0.003) // interior bucket (0.0025, 0.005]
	s := h.Snapshot()
	if s.P50 != 0.003 || s.P95 != 0.003 || s.P99 != 0.003 {
		t.Fatalf("single observation quantiles = p50=%g p95=%g p99=%g, want all 0.003",
			s.P50, s.P95, s.P99)
	}
}

func TestHistogramQuantileAllMassInOverflow(t *testing.T) {
	h := newHistogram([]float64{0.01})
	h.Observe(5)
	h.Observe(7)
	s := h.Snapshot()
	// Every observation is beyond the last bound; the estimate must stay
	// inside [Min, Max], not sag toward the 0.01 bucket edge.
	if s.P50 < s.Min || s.P50 > s.Max {
		t.Fatalf("p50 = %g outside [%g, %g]", s.P50, s.Min, s.Max)
	}
	if s.P50 != 6 {
		t.Fatalf("p50 = %g, want midpoint 6", s.P50)
	}
	if s.P99 < s.Min || s.P99 > s.Max {
		t.Fatalf("p99 = %g outside [%g, %g]", s.P99, s.Min, s.Max)
	}
}

func TestHistogramQuantileBelowFirstBound(t *testing.T) {
	h := newHistogram(nil) // first bound 0.0001
	h.Observe(0.00001)
	h.Observe(0.00002)
	s := h.Snapshot()
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q < s.Min || q > s.Max {
			t.Fatalf("quantile %g outside [%g, %g]", q, s.Min, s.Max)
		}
	}
	if s.Max != 0.00002 {
		t.Fatalf("max = %g", s.Max)
	}
}

func TestHistogramSnapshotBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []BucketCount{{LE: 1, Count: 1}, {LE: 2, Count: 3}, {LE: 5, Count: 4}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	// +Inf is implied by Count: one observation (10) beyond the last bound.
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
}

// Dropped returns how many events were evicted by the ring.
func (l *EventLog) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// SetClock overrides the time source (tests).
func (l *EventLog) SetClock(clock func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = clock
}
