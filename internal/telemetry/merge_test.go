package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// feed observes every value into a fresh histogram with the given bounds
// and returns its snapshot.
func feed(t *testing.T, bounds []float64, values []float64) HistogramSnapshot {
	t.Helper()
	h := newHistogram(bounds)
	for _, v := range values {
		h.Observe(v)
	}
	return h.Snapshot()
}

func TestMergeEmptyHistograms(t *testing.T) {
	m, err := MergeHistogramSnapshots(HistogramSnapshot{}, HistogramSnapshot{})
	if err != nil {
		t.Fatalf("empty merge: %v", err)
	}
	if m.Count != 0 || m.Sum != 0 || len(m.Buckets) != 0 {
		t.Fatalf("empty + empty should be empty, got %+v", m)
	}

	// Empty is the identity: empty + x == x, in either order.
	bounds := []float64{1, 2, 4}
	x := feed(t, bounds, []float64{0.5, 3})
	for _, pair := range [][2]HistogramSnapshot{{x, {}}, {{}, x}} {
		m, err := MergeHistogramSnapshots(pair[0], pair[1])
		if err != nil {
			t.Fatalf("identity merge: %v", err)
		}
		if m.Count != x.Count || m.P99 != x.P99 || m.Min != x.Min || m.Max != x.Max {
			t.Fatalf("empty should be identity: got %+v want %+v", m, x)
		}
	}
}

func TestMergeMismatchedBoundsRejected(t *testing.T) {
	a := feed(t, []float64{1, 2, 4}, []float64{0.5})
	b := feed(t, []float64{1, 2}, []float64{0.5})
	if _, err := MergeHistogramSnapshots(a, b); err == nil {
		t.Fatal("bucket count mismatch must be rejected")
	}
	c := feed(t, []float64{1, 3, 4}, []float64{0.5})
	if _, err := MergeHistogramSnapshots(a, c); err == nil {
		t.Fatal("bucket bound mismatch must be rejected")
	}

	// Through MergeSnapshots the error names the offending metric.
	sa := Snapshot{Histograms: map[string]HistogramSnapshot{"x.seconds": a}}
	sb := Snapshot{Histograms: map[string]HistogramSnapshot{"x.seconds": c}}
	if _, err := MergeSnapshots(sa, sb); err == nil || !strings.Contains(err.Error(), "x.seconds") {
		t.Fatalf("MergeSnapshots should name the metric, got %v", err)
	}
}

func TestMergeOverflowBucketAccumulation(t *testing.T) {
	bounds := []float64{1, 2}
	a := feed(t, bounds, []float64{0.5, 10, 20}) // two in +Inf overflow
	b := feed(t, bounds, []float64{1.5, 30})     // one in +Inf overflow
	m, err := MergeHistogramSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 5 {
		t.Fatalf("Count = %d, want 5", m.Count)
	}
	// Overflow mass = Count - last cumulative bucket.
	last := m.Buckets[len(m.Buckets)-1].Count
	if got := m.Count - last; got != 3 {
		t.Fatalf("overflow bucket = %d, want 3 (buckets %+v)", got, m.Buckets)
	}
	if m.Max != 30 || m.Min != 0.5 {
		t.Fatalf("min/max = %g/%g, want 0.5/30", m.Min, m.Max)
	}
	// Quantiles in the overflow bucket stay clamped to the observed max.
	if m.P99 > m.Max {
		t.Fatalf("p99 %g exceeds observed max %g", m.P99, m.Max)
	}
}

// TestMergeQuantilesExact is the acceptance-criteria proof: quantiles of
// Merge(snapA, snapB) are bit-identical to those of a single histogram fed
// the union of both observation sets. The quantile interpolation depends
// only on (bounds, per-bucket counts, n, min, max), all of which merge
// exactly.
func TestMergeQuantilesExact(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		a, b   []float64
	}{
		{
			name:   "disjoint ranges",
			bounds: []float64{0.001, 0.01, 0.1, 1},
			a:      []float64{0.0005, 0.002, 0.003, 0.02},
			b:      []float64{0.05, 0.25, 0.5, 2, 4},
		},
		{
			name:   "interleaved",
			bounds: []float64{0.25, 0.5, 1, 2, 4},
			a:      []float64{0.125, 0.375, 0.75, 1.5, 3},
			b:      []float64{0.1875, 0.4375, 0.875, 1.75, 3.5, 8},
		},
		{
			name:   "default latency buckets",
			bounds: nil,
			a:      []float64{0.0002, 0.0004, 0.0008, 0.004, 0.008},
			b:      []float64{0.002, 0.03, 0.06, 0.2, 0.75, 40},
		},
		{
			name:   "skewed sizes",
			bounds: []float64{1, 2, 4, 8},
			a:      []float64{0.5},
			b:      []float64{1.5, 1.5, 1.5, 3, 3, 5, 5, 5, 5, 9, 9, 9},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapA := feed(t, tc.bounds, tc.a)
			snapB := feed(t, tc.bounds, tc.b)
			union := feed(t, tc.bounds, append(append([]float64(nil), tc.a...), tc.b...))

			m, err := MergeHistogramSnapshots(snapA, snapB)
			if err != nil {
				t.Fatal(err)
			}
			if m.Count != union.Count || m.Min != union.Min || m.Max != union.Max {
				t.Fatalf("count/min/max diverge: merged %+v union %+v", m, union)
			}
			for i := range m.Buckets {
				if m.Buckets[i] != union.Buckets[i] {
					t.Fatalf("bucket %d: merged %+v union %+v", i, m.Buckets[i], union.Buckets[i])
				}
			}
			// Bit-identical, not approximately equal.
			if m.P50 != union.P50 || m.P95 != union.P95 || m.P99 != union.P99 {
				t.Fatalf("quantiles diverge: merged p50/p95/p99 = %v/%v/%v, union = %v/%v/%v",
					m.P50, m.P95, m.P99, union.P50, union.P95, union.P99)
			}
			// And independently of Snapshot: recompute via Quantile.
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
				if m.Quantile(q) != union.Quantile(q) {
					t.Fatalf("Quantile(%g) diverges: %v vs %v", q, m.Quantile(q), union.Quantile(q))
				}
			}

			// Commutativity: b + a gives the same quantiles.
			rev, err := MergeHistogramSnapshots(snapB, snapA)
			if err != nil {
				t.Fatal(err)
			}
			if rev.P50 != m.P50 || rev.P95 != m.P95 || rev.P99 != m.P99 {
				t.Fatal("merge is not commutative on quantiles")
			}
		})
	}
}

func TestMergeExemplarKeepsSlowest(t *testing.T) {
	mk := func(traceID string, v float64) HistogramSnapshot {
		h := newHistogram([]float64{1, 2})
		h.ObserveExemplar(v, traceID)
		return h.Snapshot()
	}
	a := mk("aaaa", 0.5)
	b := mk("bbbb", 1.5)
	m, err := MergeHistogramSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Exemplar == nil || m.Exemplar.TraceID != "bbbb" {
		t.Fatalf("exemplar should follow the slower observation, got %+v", m.Exemplar)
	}
	rev, _ := MergeHistogramSnapshots(b, a)
	if rev.Exemplar.TraceID != "bbbb" {
		t.Fatal("exemplar merge is not commutative")
	}

	// Equal values: tie breaks deterministically on trace ID.
	x := mk("zzzz", 1.0)
	y := mk("mmmm", 1.0)
	m1, _ := MergeHistogramSnapshots(x, y)
	m2, _ := MergeHistogramSnapshots(y, x)
	if m1.Exemplar.TraceID != "mmmm" || m2.Exemplar.TraceID != "mmmm" {
		t.Fatalf("tie-break not deterministic: %q vs %q", m1.Exemplar.TraceID, m2.Exemplar.TraceID)
	}
}

func TestMergeSnapshotsCountersGaugesEvents(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("steps").Add(3)
	ra.Counter("only_a").Add(1)
	rb.Counter("steps").Add(4)
	rb.Counter("only_b").Add(7)
	ra.Gauge("goroutines").Set(10)
	rb.Gauge("goroutines").Set(12)
	ra.Histogram("rtt.seconds").Observe(0.25)
	rb.Histogram("rtt.seconds").Observe(0.75)

	t0 := time.Unix(100, 0)
	ra.Events().SetClock(func() time.Time { return t0 })
	rb.Events().SetClock(func() time.Time { return t0.Add(time.Second) })
	rb.Event("site-b", "later", nil)
	ra.Event("site-a", "earlier", nil)

	m, err := MergeSnapshots(ra.Snapshot(), rb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["steps"] != 7 || m.Counters["only_a"] != 1 || m.Counters["only_b"] != 7 {
		t.Fatalf("counters wrong: %+v", m.Counters)
	}
	if m.Gauges["goroutines"] != 22 {
		t.Fatalf("gauges should sum, got %v", m.Gauges["goroutines"])
	}
	h := m.Histograms["rtt.seconds"]
	if h.Count != 2 || h.Min != 0.25 || h.Max != 0.75 {
		t.Fatalf("histogram merge wrong: %+v", h)
	}
	if len(m.Events) != 2 || m.Events[0].Event != "earlier" || m.Events[1].Event != "later" {
		t.Fatalf("events should interleave by timestamp: %+v", m.Events)
	}

	// MergeAll folds any number of snapshots; zero snapshots are empty.
	all, err := MergeAll(ra.Snapshot(), rb.Snapshot(), NewRegistry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if all.Counters["steps"] != 7 {
		t.Fatalf("MergeAll counters wrong: %+v", all.Counters)
	}
	empty, err := MergeAll()
	if err != nil || empty.Counters != nil {
		t.Fatalf("MergeAll() should be empty, got %+v, %v", empty, err)
	}
}

// TestConcurrentSnapshotWhileObserve exercises snapshot/merge concurrently
// with lock-free observers (including the exemplar CAS) under -race, and
// checks every intermediate snapshot is internally consistent.
func TestConcurrentSnapshotWhileObserve(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveExemplar(v, "deadbeefdeadbeefdeadbeefdeadbeef")
				v *= 1.7
				if v > 2 {
					v = seed
				}
			}
		}(0.0005 * float64(w+1))
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	var prev HistogramSnapshot
	for time.Now().Before(deadline) {
		s := h.Snapshot()
		if s.Count < prev.Count {
			t.Errorf("count went backwards: %d -> %d", prev.Count, s.Count)
			break
		}
		// Cumulative buckets must be monotone in LE.
		for i := 1; i < len(s.Buckets); i++ {
			if s.Buckets[i].Count < s.Buckets[i-1].Count {
				t.Errorf("non-monotone cumulative buckets: %+v", s.Buckets)
			}
		}
		if m, err := MergeHistogramSnapshots(prev, s); err != nil {
			t.Errorf("merge during churn: %v", err)
		} else if prev.Count > 0 && m.Count != prev.Count+s.Count {
			t.Errorf("merged count %d != %d + %d", m.Count, prev.Count, s.Count)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}

// TestObserveDurationExemplarTakesBinaryID: the step path hands the trace ID
// over in binary; it appears hex-encoded on the exemplar when — and only
// when — the observation is retained.
func TestObserveDurationExemplarTakesBinaryID(t *testing.T) {
	h := NewRegistry().Histogram("rtt")
	slow := [16]byte{0xde, 0xad, 0xbe, 0xef, 15: 0x01}
	fast := [16]byte{0xfa, 0x57}
	h.ObserveDurationExemplar(200*time.Millisecond, slow)
	h.ObserveDurationExemplar(time.Millisecond, fast)  // faster than a fresh exemplar: not retained
	h.ObserveDurationExemplar(time.Second, [16]byte{}) // no trace: counted, never the exemplar
	snap := h.Snapshot()
	if snap.Count != 3 || snap.Max != 1 {
		t.Fatalf("count %d max %v", snap.Count, snap.Max)
	}
	if snap.Exemplar == nil || snap.Exemplar.TraceID != "deadbeef000000000000000000000001" || snap.Exemplar.Value != 0.2 {
		t.Fatalf("exemplar = %+v", snap.Exemplar)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.ObserveDurationExemplar(time.Millisecond, fast) }); allocs != 0 {
		t.Fatalf("an observation that is not retained allocated %v times", allocs)
	}
}
