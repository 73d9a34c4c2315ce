package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// settings is what the flags decide for one invocation.
type settings struct {
	seed    int64
	seconds float64      // time box of a workload's timed region
	repeats int          // > 0: run exactly this many repeats instead
	setups  int          // > 0: build the topology exactly this many times
	scale   float64      // multiplies every workload's repeat size: 1 but in the test and the traced pass
	tr      *tracer      // nil in the untraced pass
	meter   *speedometer // nil: figures stay as measured
	tmp     string       // scratch root; main removes it on exit
}

// size scales a workload's nominal repeat size, never below floor.
func (s *settings) size(nominal, floor int) int {
	return max(int(math.Round(float64(nominal)*s.scale)), floor)
}

// repeat is one timed repeat of a workload, already reduced to its
// per-repeat statistics; lat keeps every operation's latency for the percentiles.
type repeat struct {
	ops      int // operations attempted
	failed   int
	opsPerS  float64
	cpuPerOp float64
	lat      []float64 // per-operation latency, s
	speed    float64   // how slow the machine was while it ran (calibrate.go)
}

// check is one correctness assertion the command makes on its outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one workload run produced.
type result struct {
	setup   []float64 // s, one per set-up
	repeats []repeat
	checks  []check
	layer   map[string]float64 // counters and derived figures read after the run
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// instance is a built, warmed-up workload.
type instance interface {
	// repeat runs timed repeat r.
	repeat(r int) (repeat, error)
	// finish runs the end-of-run checks and reads the layer counters.
	finish(res *result)
	close()
}

// workload names one set of inputs and how to build it.
type workload struct {
	name string
	op   string  // what one operation is
	tail float64 // the percentile op_s_tail reads, given the samples a run yields
	why  string
	// asMeasured: timers or injected delays set how fast operations follow
	// one another, not the processor's pace, so the wall-clock figures
	// (ops_per_s, op_s_p50, op_s_tail, setup_s) are not brought to reference
	// speed.
	asMeasured bool
	// procs, when set, is the GOMAXPROCS the workload runs at instead of the
	// CPU count.
	procs int
	// build makes the topology and warms it up: everything before the
	// first timed operation.
	build func(s *settings) (instance, error)
}

// atReferenceSpeed divides the repeat's compute-bound figures by how slow
// the machine was while it ran. Withheld processor time stretches the wall
// clock only: the guest does not charge it to the process.
func (w workload) atReferenceSpeed(rep *repeat, pace, denied float64) {
	rep.speed = pace * denied
	rep.cpuPerOp /= pace
	if w.asMeasured {
		return
	}
	rep.opsPerS *= rep.speed
	for i := range rep.lat {
		rep.lat[i] /= rep.speed
	}
}

// run sets a workload up several times (the last one is kept), runs timed
// repeats for the time box, and collects checks and counters.
func (w workload) run(s *settings) (*result, error) {
	res := &result{layer: make(map[string]float64)}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	var inst instance
	// Three set-ups at least; a cheap one is repeated for a second, up to
	// fifteen times, so that its median is no noisier than a dear one's.
	for i, first := 0, time.Now(); ; i++ {
		if s.setups > 0 && i >= s.setups {
			break
		}
		if s.setups == 0 && i >= 3 && (i >= 15 || time.Since(first) > time.Second) {
			break
		}
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.build(s); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took, now := time.Since(start).Seconds(), time.Now()
		if !w.asMeasured {
			took /= s.meter.pace(start, now) * s.meter.denied(start, now)
		}
		res.setup = append(res.setup, took)
	}
	defer inst.close()
	var sp *sampler
	if s.tr != nil {
		sp = startSampler()
	}
	start := time.Now()
	for r := 0; ; r++ {
		if s.repeats > 0 && r >= s.repeats {
			break
		}
		// Medians need at least three repeats, whatever the time box.
		if s.repeats == 0 && r >= 3 && time.Since(start).Seconds() >= s.seconds {
			break
		}
		began := time.Now()
		rep, err := inst.repeat(r)
		if err != nil {
			return nil, fmt.Errorf("%s: repeat %d: %w", w.name, r, err)
		}
		now := time.Now()
		w.atReferenceSpeed(&rep, s.meter.pace(began, now), s.meter.denied(began, now))
		res.repeats = append(res.repeats, rep)
	}
	ops := 0
	for _, rep := range res.repeats {
		ops += rep.ops
	}
	if sp != nil {
		sp.stop(res.layer, ops)
	}
	inst.finish(res)
	return res, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sampler watches the process at 10 Hz over a timed region.
type sampler struct {
	quit, done chan struct{}
	before     runtime.MemStats
	heapPeak   uint64
	goPeak     int
}

func startSampler() *sampler {
	sp := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&sp.before)
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-sp.quit:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				sp.heapPeak = max(sp.heapPeak, ms.HeapInuse)
				sp.goPeak = max(sp.goPeak, runtime.NumGoroutine())
			}
		}
	}()
	return sp
}

// stop ends sampling and writes the proc.* figures for ops operations.
func (sp *sampler) stop(layer map[string]float64, ops int) {
	close(sp.quit)
	<-sp.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	sp.heapPeak = max(sp.heapPeak, after.HeapInuse)
	sp.goPeak = max(sp.goPeak, runtime.NumGoroutine())
	n := float64(max(ops, 1))
	layer["proc.allocs_per_op"] = float64(after.Mallocs-sp.before.Mallocs) / n
	layer["proc.bytes_per_op"] = float64(after.TotalAlloc-sp.before.TotalAlloc) / n
	layer["proc.heap_inuse_peak_mb"] = float64(sp.heapPeak) / (1 << 20)
	layer["proc.goroutines_peak"] = float64(sp.goPeak)
}
