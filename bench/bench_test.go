package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{24, 95, 50}, // 24 queue waits: only the median has ten beyond it
		{39, 95, 50},
		{40, 95, 75},
		{100, 95, 90},
		{199, 95, 90},
		{200, 95, 95},
		{5000, 95, 95}, // capped: p99 has the samples but is not gated
		{999, 99, 95},
		{1000, 99, 99},
		{5000, 75, 75}, // a workload's own lower choice stands
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 25: 2, 90: 4.6, 100: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty set has no median")
	}
	// Quartiles are the driver's: statistics.quantiles([1..10], n=4) is
	// [2.75, 5.5, 8.25], and of [1, 2, 3] it is [1, 2, 3].
	ten := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if ten.Q1 != 2.75 || ten.Median != 5.5 || ten.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, want 2.75 5.5 8.25", ten)
	}
	if three := summarize([]float64{1, 2, 3}); three.Q1 != 1 || three.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, want 1 and 3", three)
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []spanRecord{
		{Name: "step", ID: 1, Start: 0, End: 10},
		// Two sites called at once overlap; a third call runs past the parent.
		{Name: "site", ID: 2, Parent: 1, Start: 1, End: 4},
		{Name: "site", ID: 3, Parent: 1, Start: 2, End: 6},
		{Name: "site", ID: 4, Parent: 1, Start: 8, End: 12},
		{Name: "leaf", ID: 5, Parent: 3, Start: 3, End: 4},
	}
	self := selfTimes(spans)
	if got := self["step"].Self[0]; math.Abs(got-3) > 1e-12 {
		t.Errorf("step self time = %g, want 10 - (1..6) - (8..10) = 3", got)
	}
	if got := self["site"].Self; len(got) != 3 || got[0] != 3 || got[1] != 3 || got[2] != 4 {
		t.Errorf("site self times = %v, want [3 3 4]", got)
	}
	if st := self["site"]; st.Count != 3 || st.Total != 11 {
		t.Errorf("site count %d total %g, want 3 and 11", st.Count, st.Total)
	}
}

// fakeClock only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.Now()
	const interval = 5 * time.Millisecond
	latency := make([]time.Duration, 6)
	late := openLoop(clk, start, interval, len(latency), func(i int, due time.Time) {
		work := time.Millisecond
		if i == 1 {
			work = 12 * time.Millisecond // a stall
		}
		clk.Sleep(work)
		latency[i] = clk.Now().Sub(due)
	})
	// Scan 1 is due at 5 ms and ends at 17 ms. Scan 2 was due at 10 ms, scan
	// 3 at 15 ms: both start late and the wait is theirs, not forgiven.
	wantLate := []time.Duration{0, 0, 7 * time.Millisecond, 3 * time.Millisecond, 0, 0}
	wantLatency := []time.Duration{1, 12, 8, 4, 1, 1}
	for i := range latency {
		if got := time.Duration(math.Round(late[i] * 1e9)); got != wantLate[i] {
			t.Errorf("scan %d started %v late, want %v", i, got, wantLate[i])
		}
		if latency[i] != wantLatency[i]*time.Millisecond {
			t.Errorf("scan %d latency from due time = %v, want %v ms", i, latency[i], wantLatency[i])
		}
	}
}

func TestPaceIsKernelTimeAndDeniedIsWithheldShare(t *testing.T) {
	m := &speedometer{}
	epoch := time.Unix(0, 0)
	for i := 0; i < 200; i++ {
		m.at = append(m.at, epoch.Add(time.Duration(i)*10*time.Millisecond))
		took := kernelRef
		if i >= 100 {
			took = 2 * kernelRef // the machine halves its speed after one second
		}
		if i%10 == 0 {
			took *= 5 // a sample hit by an interrupt must not move the median
		}
		m.took = append(m.took, took)
		// Two vCPUs busy throughout; from the second second on the host
		// withholds one tick in three.
		m.busy = append(m.busy, float64(2*i))
		m.stolen = append(m.stolen, float64(max(i-100, 0)))
	}
	for _, c := range []struct {
		from, to     time.Duration
		pace, denied float64
	}{
		{0, 900 * time.Millisecond, 1, 1},
		{1100 * time.Millisecond, 1900 * time.Millisecond, 2, 1.5},
		// Too short for its own samples: borrows neighbours on both sides.
		{1500 * time.Millisecond, 1505 * time.Millisecond, 2, 1.5},
	} {
		from, to := epoch.Add(c.from), epoch.Add(c.to)
		if got := m.pace(from, to); math.Abs(got-c.pace) > 1e-9 {
			t.Errorf("pace(%v..%v) = %g, want %g", c.from, c.to, got, c.pace)
		}
		if got := m.denied(from, to); math.Abs(got-c.denied) > 1e-9 {
			t.Errorf("denied(%v..%v) = %g, want %g", c.from, c.to, got, c.denied)
		}
	}
	var none *speedometer
	if p, d := none.pace(epoch, epoch), none.denied(epoch, epoch); p != 1 || d != 1 {
		t.Errorf("no speedometer: pace %g denied %g, want 1 and 1", p, d)
	}
}

func TestAtReferenceSpeedLeavesFiguresAsMeasuredWhereAsked(t *testing.T) {
	measured := func() repeat {
		return repeat{ops: 100, opsPerS: 100, cpuPerOp: 0.004, lat: []float64{0.008, 0.012}}
	}
	// Half speed, and a third of the wall clock withheld on top.
	const pace, denied = 2, 1.5
	rep := measured()
	workload{}.atReferenceSpeed(&rep, pace, denied)
	if rep.opsPerS != 300 || rep.lat[0] != 0.008/3 || rep.lat[1] != 0.004 || rep.cpuPerOp != 0.002 || rep.speed != 3 {
		t.Errorf("compute-bound: %+v, want 300/s, latencies over 3, CPU over 2 (withheld time is not charged)", rep)
	}
	rep = measured()
	workload{asMeasured: true}.atReferenceSpeed(&rep, pace, denied)
	if rep.opsPerS != 100 || rep.lat[0] != 0.008 || rep.cpuPerOp != 0.002 {
		t.Errorf("timer-bound: %+v, want wall-clock figures as measured and CPU over 2", rep)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 120, 95, 130, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		def  metricDef
		want string
	}{
		{"same", steady, steady, lower, "within"},
		{"slower but inside the bound", steady, []float64{105, 106, 104, 105, 107}, lower, "within"},
		{"slower beyond the bound", steady, []float64{115, 116, 114, 115, 117}, lower, "worse"},
		{"faster by more than the spread", steady, []float64{90, 91, 89, 90, 92}, lower, "better"},
		{"higher is better: a drop is worse", steady, []float64{85, 86, 84, 85, 87}, higher, "worse"},
		{"higher is better: a rise is better", steady, []float64{115, 116, 114, 115, 117}, higher, "better"},
		{"noisy and interleaved", noisy, []float64{90, 125, 100, 135, 110}, lower, "unresolved"},
		{"noisy but every run apart", noisy, []float64{200, 260, 210, 250, 220}, lower, "worse"},
	} {
		if got, _ := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTheProgram keeps ../BENCHMARK.json and the tables the
// program reports from in step.
func TestContractMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Name, c.Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !metricName.MatchString(want[i].Name) {
				t.Errorf("%s metric name %q is outside the contract's alphabet", kind, want[i].Name)
			}
		}
	}
	same("end-to-end", contract.EndToEnd, endToEnd)
	same("per-layer", contract.PerLayer, perLayer)
}

// TestSmoke runs every workload and the traced pass at a tiny scale, so a
// refactor of the layers cannot silently break the benchmark's build or
// lose a metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload smoke skipped under -short")
	}
	s := &settings{seed: 7, repeats: 1, setups: 1, scale: 0.06, tmp: t.TempDir()}
	for _, w := range workloads {
		res, err := w.run(s)
		if err != nil {
			t.Fatal(err)
		}
		o := w.reduce(res)
		for _, c := range o.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, o.Failed, o.Attempted)
		}
		for _, def := range endToEnd {
			if v := o.Metrics[def.Name].Median; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", w.name, def.Name, v)
			}
		}
	}

	s.tr = newTracer()
	layer, checks, err := tracePass(s, "most-lan", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("traced pass: check %s failed: %s", c.Name, c.Detail)
		}
	}
	for _, def := range perLayer {
		if v, ok := layer[def.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (present %v), want a finite number", def.Name, v, ok)
		}
	}
	if len(s.tr.snapshot()) == 0 {
		t.Error("the traced pass recorded no spans")
	}
}
