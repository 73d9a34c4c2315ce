package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The reference box is a shared two-vCPU VM whose pace changes under the
// benchmark: the same commit's compute-bound medians sit 14–24 % apart from
// one invocation to the next, however many repeats a run holds, because a
// whole run sits inside one mood of the machine; and the driver accepts only
// a benchmark whose runs agree within its bounds. So a speedometer times the
// same small kernel every 10 ms beside the workload, and a compute-bound
// figure is divided by how slow the machine was while it was taken: seconds
// at reference speed, not seconds on the wall. Figures that timers or
// injected delays set are left as measured (workload.asMeasured). README.md,
// "Recorded baseline", has the same runs with and without the division, how
// far the model holds, and what became of a cheaper speedometer that samples
// between repeats only.
//
// The host also throttles the VM after sustained load: the vCPUs are simply
// not run for up to half of the time they want to. A kernel that works for
// half a millisecond in ten slips through that untouched, but the guest
// counts the withheld time as steal in /proc/stat, so the speedometer reads
// that too.

// kernelRef is what one kernel takes on the reference box on an ordinary
// day. It only fixes the scale: a pace of 1 means "as fast as that".
const kernelRef = 650e-6 // s

// kernel is the fixed work: the product's own dominant instruction mix
// (Ed25519 signing and SHA-256 over an envelope-sized payload), from the
// standard library so that no change to the repository can move it.
func kernel(key ed25519.PrivateKey, msg []byte) float64 {
	start := time.Now()
	for i := 0; i < 20; i++ {
		digest := sha256.Sum256(ed25519.Sign(key, msg))
		msg[0] = digest[0]
	}
	return time.Since(start).Seconds()
}

// speedometer samples the kernel in the background: half a millisecond of
// work every ten, about 5 % of one vCPU, the same on every commit.
type speedometer struct {
	quit, done chan struct{}
	mu         sync.Mutex
	at         []time.Time
	took       []float64
	busy       []float64 // cumulative CPU time the guest ran, all vCPUs, ticks
	stolen     []float64 // cumulative CPU time the host withheld, ticks
}

// cpuTicks reads the guest's cumulative busy and stolen CPU time from the
// first line of /proc/stat (user nice system idle iowait irq softirq steal).
// Where there is no such file both stay 0 and nothing is corrected for.
func cpuTicks() (busy, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var user, nice, system, idle, iowait, irq, softirq float64
	if n, _ := fmt.Sscanf(line, "cpu %f %f %f %f %f %f %f %f", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &stolen); n < 8 {
		return 0, 0
	}
	return user + nice + system + irq + softirq, stolen
}

func startSpeedometer() (*speedometer, error) {
	_, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	m := &speedometer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		msg := make([]byte, 512)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				took := kernel(key, msg)
				busy, stolen := cpuTicks()
				m.mu.Lock()
				m.at = append(m.at, time.Now())
				m.took = append(m.took, took)
				m.busy = append(m.busy, busy)
				m.stolen = append(m.stolen, stolen)
				m.mu.Unlock()
			}
		}
	}()
	return m, nil
}

func (m *speedometer) stop() {
	close(m.quit)
	<-m.done
}

// window returns the samples taken between from and to. A window too short
// to hold n borrows the nearest ones on either side.
func (m *speedometer) window(from, to time.Time, n int) (lo, hi int) {
	lo = sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(from) })
	hi = sort.Search(len(m.at), func(i int) bool { return m.at[i].After(to) })
	for hi-lo < n && (lo > 0 || hi < len(m.at)) {
		lo, hi = max(lo-1, 0), min(hi+1, len(m.at))
	}
	return lo, hi
}

// pace is how slow the processor ran between from and to: the median kernel
// time in that window over kernelRef. No speedometer (the traced pass, the
// tests), no scaling.
func (m *speedometer) pace(from, to time.Time) float64 {
	if m == nil {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo, hi := m.window(from, to, 5)
	if hi == lo {
		return 1
	}
	return percentile(sorted(m.took[lo:hi]), 50) / kernelRef
}

// denied is how much longer work took between from and to because the host
// withheld the processor: work granted a share 1-σ of the time it asked for
// took 1/(1-σ) times as long. The tick counters are coarse, so the window
// holds fifty samples at least.
func (m *speedometer) denied(from, to time.Time) float64 {
	if m == nil {
		return 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo, hi := m.window(from, to, 50)
	if hi == lo {
		return 1
	}
	busy, stolen := m.busy[hi-1]-m.busy[lo], m.stolen[hi-1]-m.stolen[lo]
	if busy <= 0 || stolen <= 0 {
		return 1
	}
	return (busy + stolen) / busy
}
