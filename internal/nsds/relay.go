package nsds

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"neesgrid/internal/telemetry"
)

const (
	// relayBuffer is a relay's upstream receive depth in batches.
	relayBuffer = 256
	// relayBackoff and relayMaxBackoff bound the reconnect delay.
	relayBackoff    = 50 * time.Millisecond
	relayMaxBackoff = 2 * time.Second
	// localRelayBuffer is the in-process forwarder's subscription depth in
	// batches: deep enough that a chaos-scale run never backpressure-drops
	// on the forwarder itself, which keeps relay-tier forced-drop counts
	// deterministic.
	localRelayBuffer = maxBuffer
)

// forwarder is the relay tier's one forward loop, shared by Relay and
// LocalRelay: it drops what the local hub has already forwarded (by
// upstream sequence), republishes the rest with the upstream sequence
// numbers, then counts.
type forwarder struct {
	hub *Hub
	// lastSeq is the highest upstream sequence forwarded; touched only by
	// the goroutine running the loop.
	lastSeq    uint64
	forwarded  atomic.Uint64
	duplicates atomic.Uint64
}

// run forwards batches until the channel closes or ctx ends. Catch-up
// replays after a reconnect are deduplicated by sequence number: the
// upstream assigns each sample one sequence for life, so anything at or
// below lastSeq has already been forwarded.
func (f *forwarder) run(ctx context.Context, batches <-chan *Batch) {
	for {
		select {
		case <-ctx.Done():
			return
		case b, ok := <-batches:
			if !ok {
				return
			}
			fresh := b.Samples
			for len(fresh) > 0 && fresh[0].Seq <= f.lastSeq {
				fresh = fresh[1:]
			}
			if len(fresh) > 0 {
				f.hub.PublishForwarded(fresh)
				f.lastSeq = fresh[len(fresh)-1].Seq
			}
			f.duplicates.Add(uint64(len(b.Samples) - len(fresh)))
			f.forwarded.Add(uint64(len(fresh)))
		}
	}
}

// RelayConfig describes one relay tier node.
type RelayConfig struct {
	// Upstream is the address of the NSDS server to subscribe to (every
	// channel).
	Upstream string
	// Retention is the local hub's per-channel retention for late joiners
	// (0 = off). With retention on both tiers, a viewer joining behind the
	// relay sees history even across an upstream reconnect.
	Retention int
	// Telemetry, when set, exports the relay hub's tier counters
	// (nsds.tier.*.relay) plus nsds.relay.reconnects.
	Telemetry *telemetry.Registry
}

// Relay subscribes to an upstream NSDS server over a single binary
// connection and re-fans the stream out through its own local hub — the
// broker tier that turns one flat hub serving every viewer into a tree of
// hubs. Fan-in is one connection regardless of how many viewers sit
// behind the relay; drop semantics stay best-effort at both tiers (a slow
// viewer drops at the relay hub, a slow relay drops at the upstream hub —
// the experiment never blocks).
//
// On upstream loss the relay reconnects with exponential backoff (50 ms
// doubling to 2 s) and a catch-up subscription: upstream retained history
// replays on reconnect, already-forwarded samples are deduplicated by
// sequence number, and only the missed window re-fans out — a late joiner
// behind the relay sees each sample exactly once, in order.
type Relay struct {
	cfg RelayConfig
	fw  forwarder

	cancel context.CancelFunc
	done   chan struct{}

	connected  atomic.Bool
	everConn   atomic.Bool
	reconnects atomic.Uint64
	reconCtr   *telemetry.Counter
}

// NewRelay creates a relay and its local hub (not yet connected — Start
// dials).
func NewRelay(cfg RelayConfig) *Relay {
	r := &Relay{cfg: cfg, fw: forwarder{hub: NewHub()}}
	if cfg.Retention > 0 {
		r.fw.hub.SetRetention(cfg.Retention)
	}
	if cfg.Telemetry != nil {
		r.fw.hub.UseTelemetry(cfg.Telemetry, "relay")
		r.reconCtr = cfg.Telemetry.Counter("nsds.relay.reconnects")
	}
	return r
}

// Hub returns the relay's local (downstream-facing) hub. Viewers —
// servers, gateways, in-process subscribers — attach here.
func (r *Relay) Hub() *Hub { return r.fw.hub }

// Reconnects returns how many times the upstream connection was re-dialed
// after a loss.
func (r *Relay) Reconnects() uint64 { return r.reconnects.Load() }

// Forwarded returns the total samples re-published downstream.
func (r *Relay) Forwarded() uint64 { return r.fw.forwarded.Load() }

// Duplicates returns catch-up samples discarded as already forwarded.
func (r *Relay) Duplicates() uint64 { return r.fw.duplicates.Load() }

// Start launches the upstream subscription loop (runtime.Component shape).
func (r *Relay) Start(context.Context) error {
	if r.done != nil {
		return fmt.Errorf("nsds: relay already started")
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.done = make(chan struct{})
	go r.run(ctx)
	return nil
}

// Stop severs the upstream connection, waits (bounded by ctx) for the
// forward loop, then closes the local hub.
func (r *Relay) Stop(ctx context.Context) error {
	if r.done == nil {
		r.fw.hub.Close()
		return nil
	}
	r.cancel()
	select {
	case <-r.done:
	case <-ctx.Done():
		return fmt.Errorf("nsds: relay still draining: %w", ctx.Err())
	}
	r.fw.hub.Close()
	return nil
}

// Healthy reports nil while the upstream subscription is live.
func (r *Relay) Healthy() error {
	if !r.connected.Load() {
		return fmt.Errorf("nsds: relay not connected to %s", r.cfg.Upstream)
	}
	return nil
}

func (r *Relay) run(ctx context.Context) {
	defer close(r.done)
	backoff := relayBackoff
	for ctx.Err() == nil {
		cl, err := Dial(r.cfg.Upstream, relayBuffer, true, nil)
		if err != nil {
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(2*backoff, relayMaxBackoff)
			continue
		}
		if r.everConn.Swap(true) {
			r.reconnects.Add(1)
			if r.reconCtr != nil {
				r.reconCtr.Inc()
			}
		}
		r.connected.Store(true)
		backoff = relayBackoff
		r.fw.run(ctx, cl.Batches())
		_ = cl.Close()
		r.connected.Store(false)
		if ctx.Err() == nil && !sleepCtx(ctx, backoff) {
			return
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// LocalRelay chains a downstream hub onto an in-process upstream hub: the
// single-process form of the relay tier, used by the most harness (per-
// site viewer tier) and the fan-out benchmarks. It runs the same forward
// loop as Relay, fed by one upstream subscription instead of a
// connection, so a slow viewer drops at the downstream hub without ever
// backpressuring the upstream.
type LocalRelay struct {
	sub  *Subscription
	fw   forwarder
	done chan struct{}
}

// NewLocalRelay starts forwarding from upstream into downstream.
func NewLocalRelay(upstream, downstream *Hub) (*LocalRelay, error) {
	sub, err := upstream.SubscribeBatches(localRelayBuffer, false)
	if err != nil {
		return nil, err
	}
	lr := &LocalRelay{sub: sub, fw: forwarder{hub: downstream}, done: make(chan struct{})}
	go func() {
		defer close(lr.done)
		lr.fw.run(context.Background(), sub.Batches())
	}()
	return lr, nil
}

// Drain waits until every sample the upstream has handed this relay has
// been forwarded downstream or discarded as a duplicate. Call it when
// upstream publishing has stopped (end of run) and downstream counters
// must be settled — the chaos engine does, so relay-tier forced drops are
// consumed before the verdict reads them.
func (lr *LocalRelay) Drain(ctx context.Context) error {
	for {
		// Operands load left to right, forwarded before duplicates — the
		// reverse of the order the loop adds them — and both before the
		// subscription's count, so equality means nothing is in flight.
		if lr.fw.forwarded.Load()+lr.fw.duplicates.Load() == lr.sub.Delivered() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nsds: relay drain: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// Stop cancels the upstream subscription and waits for the forward loop.
// The downstream hub is left to its owner.
func (lr *LocalRelay) Stop() {
	lr.sub.Cancel()
	<-lr.done
}
