// Package faultnet emulates the wide-area network between experiment sites:
// added latency, jitter, and — crucially for reproducing the MOST public run
// — transient and fatal network failures injected on a deterministic
// schedule. The paper's §3.4 result ("the fault tolerance features of NTCP
// enabled the simulation to detect and recover from several transient
// network failures throughout the day; … a final network error caused the
// simulation to terminate prematurely" at step 1493) is reproduced by
// driving NTCP client traffic through this package.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// Profile describes steady-state WAN behaviour.
type Profile struct {
	// Latency is the one-way delay added to every request.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// DropRate is the probability a call fails with a transport error.
	DropRate float64
	// Seed makes jitter and random drops deterministic.
	Seed int64
}

// LAN is a near-zero profile.
var LAN = Profile{}

// WAN2003 approximates the 2003 Illinois–Colorado Internet2 path: ~40 ms
// round trip with mild jitter.
var WAN2003 = Profile{Latency: 20 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 2003}

// Injector produces transport errors on demand. It is shared between the
// experiment harness (which schedules faults) and the transports it wraps.
type Injector struct {
	mu         sync.Mutex
	profile    Profile
	rng        *rand.Rand
	failNext   int
	outage     bool
	windows    []outageWindow
	extraDelay time.Duration
	calls      int
	injected   int
	tel        *telemetry.Registry
}

// outageWindow is a scheduled outage measured in call counts: calls with
// 1-based index in (start, start+length] fail. Counting calls instead of
// wall time is what keeps chaos scenarios byte-replayable — the heal point
// is a pure function of how much traffic the client pushed, not of how fast
// the host happened to run.
type outageWindow struct {
	start, length int
}

// NewInjector builds an injector over a profile.
func NewInjector(p Profile) *Injector {
	return &Injector{profile: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// UseTelemetry mirrors the injector's activity into a shared registry:
// faultnet.calls / faultnet.injected counters and a
// faultnet.delay.seconds histogram of applied WAN delay. Sharing the
// registry with the NTCP clients lets a run correlate injected faults with
// the retries and recoveries they caused.
func (in *Injector) UseTelemetry(reg *telemetry.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tel = reg
	if reg != nil {
		// Pre-register at zero: a fault-free run still exports the series,
		// so "no faults injected" reads as faultnet.injected = 0 rather than
		// looking like the injector was never wired.
		reg.Counter("faultnet.calls")
		reg.Counter("faultnet.injected")
	}
}

// FailNext makes the next n calls fail with a transport error — a transient
// outage if the client retries past it, fatal if it does not.
func (in *Injector) FailNext(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failNext += n
}

// SetOutage switches a hard outage on or off: every call fails until
// cleared (a network partition).
func (in *Injector) SetOutage(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.outage = on
}

// ScheduleOutage schedules a partition window measured in calls: after the
// next `after` calls pass through, the following `length` calls fail. The
// window is counted, not timed, so the same scenario heals at the same
// retry attempt on every replay regardless of host speed. Windows may
// overlap; a call inside any window fails.
func (in *Injector) ScheduleOutage(after, length int) {
	if after < 0 || length <= 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.windows = append(in.windows, outageWindow{start: in.calls + after, length: length})
}

// SetExtraDelay adds a constant extra delay to every subsequent call on top
// of the profile's latency and jitter. The chaos engine ramps this per step
// to emulate clock-skewed slow-downs without touching the seeded jitter
// stream.
func (in *Injector) SetExtraDelay(d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if d < 0 {
		d = 0
	}
	in.extraDelay = d
}

// ClearFaults disarms everything scheduled on the injector — pending
// FailNext budget, a standing outage, scheduled windows, and extra delay —
// without touching the seeded jitter stream or the lifetime counters. The
// shared site pool calls it on lease release so a tenant whose run died
// under an armed fault hands the next tenant a clean network.
func (in *Injector) ClearFaults() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failNext = 0
	in.outage = false
	in.windows = nil
	in.extraDelay = 0
}

// Calls returns how many calls passed through the injector.
func (in *Injector) Calls() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// Injected returns how many transport errors the injector produced.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// next decides the fate of one call: the delay to apply and whether to fail.
func (in *Injector) next() (time.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	delay := in.profile.Latency + in.extraDelay
	if in.profile.Jitter > 0 {
		delay += time.Duration(in.rng.Int63n(int64(in.profile.Jitter)))
	}
	fail := in.outage
	if !fail {
		// Scheduled windows are consulted on every call; expired windows are
		// pruned so long runs do not accumulate them.
		live := in.windows[:0]
		for _, w := range in.windows {
			if in.calls <= w.start+w.length {
				live = append(live, w)
				if in.calls > w.start {
					fail = true
				}
			}
		}
		in.windows = live
	}
	if !fail && in.failNext > 0 {
		in.failNext--
		fail = true
	}
	if !fail && in.profile.DropRate > 0 && in.rng.Float64() < in.profile.DropRate {
		fail = true
	}
	if in.tel != nil {
		in.tel.Counter("faultnet.calls").Inc()
		if delay > 0 {
			in.tel.Histogram("faultnet.delay.seconds", telemetry.DefaultLatencyBuckets...).
				ObserveDuration(delay)
		}
	}
	if fail {
		in.injected++
		if in.tel != nil {
			in.tel.Counter("faultnet.injected").Inc()
		}
		return delay, &NetError{Op: "faultnet", Msg: "injected network failure"}
	}
	return delay, nil
}

// NetError is the transport error faultnet injects. It satisfies net.Error
// so HTTP clients treat it as a genuine network failure.
type NetError struct {
	Op  string
	Msg string
}

func (e *NetError) Error() string   { return fmt.Sprintf("%s: %s", e.Op, e.Msg) }
func (e *NetError) Timeout() bool   { return true }
func (e *NetError) Temporary() bool { return true }

var _ net.Error = (*NetError)(nil)

// Transport wraps an http.RoundTripper with the injector: every round trip
// pays the WAN latency and may be failed by schedule, partition, or random
// drop. Wrap the ogsi client's HTTP transport with this to put a site
// "behind the WAN". Inner is required.
type Transport struct {
	Injector *Injector
	Inner    http.RoundTripper
}

// NewTransportOver builds a faulty transport over a caller-supplied inner
// round tripper — the composition the coordinator uses to put a pinned
// OGSI session transport behind the injected WAN. Latency and
// failures are charged once per round trip (per signed envelope), so a
// batched envelope carrying several operations pays the WAN exactly once —
// the property the E8 pipelined benchmark measures.
func NewTransportOver(in *Injector, inner http.RoundTripper) *Transport {
	return &Transport{Injector: in, Inner: inner}
}

// RoundTrip applies delay and scheduled failures before delegating. When
// the request context carries a live trace span (the ogsi client span),
// the injected delay and any injected failure are annotated onto it —
// this is what makes a faultnet-delayed site visibly slow in the merged
// timeline rather than just mysteriously late.
func (t *Transport) RoundTrip(r *http.Request) (*http.Response, error) {
	delay, err := t.Injector.next()
	span := trace.SpanFromContext(r.Context())
	if delay > 0 {
		span.Annotate("faultnet.delay", delay.String())
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	if err != nil {
		span.Annotate("faultnet.inject", err.Error())
		return nil, err
	}
	return t.Inner.RoundTrip(r)
}
