package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"neesgrid/internal/daq"
	"neesgrid/internal/nsds"
)

const (
	streamChannels = 32
	streamAudience = 1000 // in-process batch subscribers on the relay hub
	scanInterval   = 5 * time.Millisecond
)

// clock is the time source of the open-loop generator; the test injects one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep sleeps through all but the last two milliseconds and yields through the
// rest: a bare time.Sleep overshoots by 0.3–1.6 ms here, which would put the
// generator late on every scan.
func (wallClock) Sleep(d time.Duration) {
	until := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(until) {
		runtime.Gosched()
	}
}

// openLoop issues n operations on a fixed schedule, whatever each one takes:
// operation i is due at start + i·interval and is handed that due time, so
// a latency timed from it includes the wait a stall imposed on the
// operations queued behind. It returns how late the generator started each.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, op func(i int, due time.Time)) []float64 {
	late := make([]float64, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late[i] = max(clk.Now().Sub(due).Seconds(), 0)
		op(i, due)
	}
	return late
}

// tierLog timestamps each scan's arrival at one tier of the pipeline.
type tierLog struct {
	mu      sync.Mutex
	at      map[int]time.Time // scan index → first sample seen
	last    time.Time         // latest arrival
	samples int
	bytes   int
}

func newTierLog() *tierLog { return &tierLog{at: make(map[int]time.Time)} }

func (l *tierLog) see(samples []nsds.Sample, now time.Time, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bytes += bytes
	l.samples += len(samples)
	l.last = now
	for _, smp := range samples {
		// The generator stamps each scan's index into the sample time.
		if _, ok := l.at[int(smp.T)]; !ok {
			l.at[int(smp.T)] = now
		}
	}
}

func (l *tierLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.samples
}

// latest returns how many samples have arrived and when the last one did.
func (l *tierLog) latest() (int, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.samples, l.last
}

func (l *tierLog) arrival(scan int) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[scan]
	return t, ok
}

// follow logs a hub's batches until the subscription ends.
func (l *tierLog) follow(sub *nsds.Subscription, wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range sub.Batches() {
		l.see(b.Samples, time.Now(), 0)
	}
}

// streamRun is the DAQ → hub → TCP → relay → SSE → viewer pipeline.
type streamRun struct {
	s        *settings
	dur      time.Duration // closed-loop time per repeat
	scansA   int           // traced pass: open-loop scans before each repeat
	daq      *daq.DAQ
	hub      *nsds.Hub
	server   *nsds.Server
	relay    *nsds.Relay
	gateway  *http.Server
	body     io.Closer
	viewer   *tierLog
	seen     chan struct{} // the viewer parsed an event
	audience []*nsds.Subscription
	next     int // next scan index
	wg       sync.WaitGroup

	// Traced pass only: in-process taps at both hubs.
	tapHub, tapRelay *tierLog
	taps             []*nsds.Subscription

	late     []float64
	openLat  []float64
	hopRelay []float64
	hopSSE   []float64
}

func buildStream(s *settings) (instance, error) {
	st := &streamRun{s: s, dur: time.Duration(float64(time.Second) * min(s.scale, 1)), scansA: s.size(200, 50)}
	if err := st.wire(); err != nil {
		st.close()
		return nil, err
	}
	// Warm-up: a closed-loop burst fills connections, pools and the relay.
	patience := time.NewTimer(stallAfter)
	defer patience.Stop()
	for i := 0; i < 100; i++ {
		if _, err := st.scanToViewer(patience); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

func (st *streamRun) wire() error {
	st.hub = nsds.NewHub()
	st.daq = daq.New("uiuc", st.s.seed)
	for c := 0; c < streamChannels; c++ {
		phase := float64(c)
		if err := st.daq.AddChannel(daq.Channel{
			Name: fmt.Sprintf("uiuc.ch%02d", c), Kind: daq.LVDT, Units: "m",
			Read:     func() float64 { return 0.01 * math.Sin(phase) },
			NoiseStd: 1e-6,
		}); err != nil {
			return err
		}
	}
	st.daq.AttachHub(st.hub)
	st.server = nsds.NewServer(st.hub)
	addr, err := st.server.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.relay = nsds.NewRelay(nsds.RelayConfig{Upstream: addr})
	if err := st.relay.Start(context.Background()); err != nil {
		return err
	}
	if err := waitFor("relay upstream connection", func() bool { return st.relay.Healthy() == nil }); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.gateway = &http.Server{Handler: nsds.NewGateway(st.relay.Hub())}
	go func() { _ = st.gateway.Serve(ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/stream?buffer=4096")
	if err != nil {
		return err
	}
	st.body = resp.Body
	st.viewer = newTierLog()
	st.seen = make(chan struct{}, 1)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		var event struct {
			Samples []nsds.Sample `json:"samples"`
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		prefix := []byte("data: ")
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, prefix) {
				continue
			}
			event.Samples = event.Samples[:0]
			if json.Unmarshal(line[len(prefix):], &event) == nil {
				st.viewer.see(event.Samples, time.Now(), len(line))
				select {
				case st.seen <- struct{}{}:
				default:
				}
			}
		}
	}()
	if err := waitFor("SSE viewer subscription", func() bool { return st.relay.Hub().Subscribers() > 0 }); err != nil {
		return err
	}
	for i := 0; i < streamAudience; i++ {
		sub, err := st.relay.Hub().SubscribeBatches(64, false)
		if err != nil {
			return err
		}
		st.audience = append(st.audience, sub)
	}
	if st.s.tr != nil {
		st.tapHub, st.tapRelay = newTierLog(), newTierLog()
		for hub, log := range map[*nsds.Hub]*tierLog{st.hub: st.tapHub, st.relay.Hub(): st.tapRelay} {
			sub, err := hub.SubscribeBatches(4096, false)
			if err != nil {
				return err
			}
			st.taps = append(st.taps, sub)
			st.wg.Add(1)
			go log.follow(sub, &st.wg)
		}
	}
	return nil
}

// waitFor polls cond for up to five seconds.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// scan publishes one 32-channel scan stamped with its index.
func (st *streamRun) scan() error {
	sp := st.s.tr.start("daq.Scan", int64(st.next+1), nil)
	_, err := st.daq.Scan(st.next, float64(st.next))
	sp.end()
	st.next++
	return err
}

// sweep empties every audience subscription without blocking: the publisher
// thread plays a thousand viewers event-loop style.
func (st *streamRun) sweep() {
	for _, sub := range st.audience {
		for drained := false; !drained; {
			select {
			case <-sub.Batches():
			default:
				drained = true
			}
		}
	}
}

// stallAfter is how long the closed loop waits for the viewer before it
// gives a scan up as lost.
const stallAfter = 5 * time.Second

// scanToViewer is one operation of the closed loop: a scan, timed from its
// start until the viewer has parsed its last sample; the audience, which the
// relay hub served before the SSE copy left, is drained afterwards. The
// generator blocks meanwhile, so nothing but the pipeline runs.
func (st *streamRun) scanToViewer(patience *time.Timer) (float64, error) {
	start := time.Now()
	if err := st.scan(); err != nil {
		return 0, err
	}
	want := st.next * streamChannels
	for {
		have, at := st.viewer.latest()
		if have >= want {
			st.sweep()
			return at.Sub(start).Seconds(), nil
		}
		select {
		case <-st.seen:
		case <-patience.C:
			return 0, fmt.Errorf("scan %d: %d of %d samples at the viewer after %v", st.next-1, have, want, stallAfter)
		}
	}
}

// settle waits until the viewer has parsed want samples in all.
func (st *streamRun) settle(want int) error {
	err := waitFor(fmt.Sprintf("%d samples at the viewer", want),
		func() bool { st.sweep(); return st.viewer.count() >= want })
	// The relay hub fans a batch out before its SSE copy reaches the viewer,
	// so once the viewer has everything one last sweep leaves the audience
	// empty for the closed loop.
	st.sweep()
	return err
}

// openPhase is the traced pass's open loop: one scan every 5 ms whatever the
// pipeline does, latency from each scan's due time, and the arrival at each
// tier for the hop times. The machine idles between scans, so these figures
// carry its wake-up costs: they are per-layer metrics, not gated ones.
func (st *streamRun) openPhase() error {
	first := st.next
	due := make([]time.Time, st.scansA)
	var scanErr error
	late := openLoop(wallClock{}, time.Now().Add(scanInterval), scanInterval, st.scansA, func(i int, at time.Time) {
		due[i] = at
		if err := st.scan(); err != nil && scanErr == nil {
			scanErr = err
		}
		st.sweep()
	})
	if scanErr != nil {
		return scanErr
	}
	if err := st.settle(st.next * streamChannels); err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	st.late = append(st.late, late...)
	for i, at := range due {
		seen, _ := st.viewer.arrival(first + i)
		st.openLat = append(st.openLat, seen.Sub(at).Seconds())
		st.s.tr.record("scan-to-viewer", int64(first+i+1), nil, at, seen)
		atHub, ok1 := st.tapHub.arrival(first + i)
		atRelay, ok2 := st.tapRelay.arrival(first + i)
		if ok1 && ok2 {
			st.hopRelay = append(st.hopRelay, atRelay.Sub(atHub).Seconds())
			st.hopSSE = append(st.hopSSE, seen.Sub(atRelay).Seconds())
		}
	}
	return nil
}

func (st *streamRun) repeat(int) (repeat, error) {
	if st.s.tr != nil {
		if err := st.openPhase(); err != nil {
			return repeat{}, err
		}
	}
	// Closed loop: scans back to back, each at the viewer before the next.
	patience := time.NewTimer(st.dur + stallAfter)
	defer patience.Stop()
	var rep repeat
	delivered := st.relay.Hub().Delivered()
	cpu, start := cpuSeconds(), time.Now()
	for time.Since(start) < st.dur {
		took, err := st.scanToViewer(patience)
		if err != nil {
			return repeat{}, err
		}
		rep.lat = append(rep.lat, took)
	}
	elapsed := time.Since(start).Seconds()
	rep.ops = len(rep.lat)
	rep.opsPerS = float64(st.relay.Hub().Delivered()-delivered) / elapsed
	rep.cpuPerOp = (cpuSeconds() - cpu) / float64(rep.ops)
	return rep, nil
}

func (st *streamRun) finish(res *result) {
	published := st.next * streamChannels
	res.check("viewer-samples", st.viewer.count() == published, "%d samples at the viewer, %d published", st.viewer.count(), published)
	pubHub, dropHub := st.hub.Stats()
	pubRelay, dropRelay := st.relay.Hub().Stats()
	res.check("no-drops", dropHub == 0 && dropRelay == 0, "hub dropped %d, relay dropped %d", dropHub, dropRelay)
	res.layer["nsds.drop_share.hub"] = float64(dropHub) / float64(max(pubHub, 1))
	res.layer["nsds.drop_share.relay"] = float64(dropRelay) / float64(max(pubRelay, 1))
	st.viewer.mu.Lock()
	res.layer["nsds.sse_bytes_per_sample"] = float64(st.viewer.bytes) / float64(max(st.viewer.samples, 1))
	st.viewer.mu.Unlock()
	if len(st.openLat) > 0 {
		// Lateness is charged to the scans it delays (latency runs from the due
		// time), so a late generator skews the open loop instead of hiding a
		// stall. It is reported, not failed: on a shared box the hypervisor
		// alone parks a spinning thread for milliseconds now and then.
		res.layer["gen.late_s_p99"] = percentile(sorted(st.late), 99)
		open := sorted(st.openLat)
		res.layer["nsds.open_loop_s_p50"] = percentile(open, 50)
		res.layer["nsds.open_loop_s_p90"] = percentile(open, 90)
		res.layer["nsds.hop_s_p50.tcp-relay"] = percentile(sorted(st.hopRelay), 50)
		res.layer["nsds.hop_s_p50.sse"] = percentile(sorted(st.hopSSE), 50)
	}
}

func (st *streamRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sub := range append(st.audience, st.taps...) {
		sub.Cancel()
	}
	if st.body != nil {
		_ = st.body.Close()
	}
	if st.gateway != nil {
		_ = st.gateway.Close()
	}
	if st.relay != nil {
		_ = st.relay.Stop(ctx)
	}
	// The hub goes before its server: the server's connection goroutines
	// end when their subscriptions do.
	if st.hub != nil {
		st.hub.Close()
	}
	if st.server != nil {
		_ = st.server.Stop(ctx)
	}
	st.wg.Wait()
}
