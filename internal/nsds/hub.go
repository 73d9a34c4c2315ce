package nsds

import (
	"context"
	"fmt"
	gort "runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// Subscription is one consumer's view of the stream. It is either
// sample-mode (C() delivers individual samples — the legacy shape every
// in-process consumer uses) or batch-mode (Batches() delivers whole
// published batches as shared immutable *Batch values — the shape the
// binary wire, the relay tier, and the SSE gateway consume).
type Subscription struct {
	id    uint64
	hub   *Hub
	shard *shard

	ch  chan Sample // sample mode; nil in batch mode
	bch chan *Batch // batch mode; nil in sample mode

	// sinceSeq is the hub sequence at registration. Live fan-out skips
	// batches at or below it: those samples either arrived via catch-up
	// history or predate the subscription — either way delivering them
	// live would duplicate or leak the past. This is what keeps
	// history-then-live exactly-once now that publishers fan out after
	// releasing the hub lock.
	sinceSeq uint64

	delivered atomic.Uint64
	dropped   atomic.Uint64
	// filter is the precomputed channel set, built once at subscribe time
	// and never mutated afterwards, so the fan-out hot path reads it without
	// a lock.
	filter map[string]bool
}

// C returns the sample channel of a sample-mode subscription (nil for
// batch mode). It is closed when the subscription is cancelled or the hub
// shuts down.
func (s *Subscription) C() <-chan Sample { return s.ch }

// Batches returns the batch channel of a batch-mode subscription (nil for
// sample mode). Closed on cancel or hub shutdown.
func (s *Subscription) Batches() <-chan *Batch { return s.bch }

// Dropped returns how many samples this subscriber lost to backpressure.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many samples were enqueued to this subscriber.
// Tracked for batch-mode subscriptions (it is what LocalRelay.Drain polls
// to know the forwarder has caught up) and for catch-up history; the
// sample-mode live path skips the per-sample atomic to keep per-publish
// cost flat.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Cancel detaches the subscription.
func (s *Subscription) Cancel() {
	sh := s.shard
	sh.mu.Lock()
	_, ok := sh.subs[s.id]
	if ok {
		delete(sh.subs, s.id)
		sh.snapshot = nil
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	s.hub.subCount.Add(-1)
	// Close outside the shard lock but under the shard's fan-out write
	// lock, so no publisher is mid-send to this channel.
	sh.fanMu.Lock()
	s.closeChan()
	sh.fanMu.Unlock()
}

func (s *Subscription) closeChan() {
	if s.ch != nil {
		close(s.ch)
	} else {
		close(s.bch)
	}
}

// wants is lock-free: the filter set is immutable after construction.
func (s *Subscription) wants(channel string) bool {
	if len(s.filter) == 0 {
		return true
	}
	return s.filter[channel]
}

// offerSamples delivers a sequenced run of samples to a sample-mode
// subscriber, best-effort. Successful sends are counted only at the hub
// tier (one atomic for the whole fan-out); per-subscriber accounting on
// this path is drops only, so the ten-viewer per-sample publish stays as
// cheap as the pre-shard hub.
func (s *Subscription) offerSamples(samples []Sample) (delivered, dropped uint64) {
	for i := range samples {
		if samples[i].Seq <= s.sinceSeq || !s.wants(samples[i].Channel) {
			continue
		}
		select {
		case s.ch <- samples[i]:
			delivered++
		default:
			dropped++
		}
	}
	if dropped > 0 {
		s.dropped.Add(dropped)
	}
	return delivered, dropped
}

// offerBatch delivers one shared batch to a batch-mode subscriber. A full
// buffer drops the whole batch (its samples counted individually) — the
// batch-granular form of the same best-effort contract.
func (s *Subscription) offerBatch(b *Batch) (delivered, dropped uint64) {
	if len(b.Samples) == 0 || b.Samples[0].Seq <= s.sinceSeq {
		// Batches are sequenced atomically under the hub lock, so a batch
		// is entirely before or entirely after this subscription.
		return 0, 0
	}
	d := b
	if len(s.filter) > 0 {
		if d = b.filterTo(s.filter); d == nil {
			return 0, 0
		}
	}
	n := uint64(len(d.Samples))
	select {
	case s.bch <- d:
		s.delivered.Add(n)
		return n, 0
	default:
		s.dropped.Add(n)
		return 0, n
	}
}

// shard is one lock domain of a hub's subscriber set. Subscribers hash
// onto shards by id; each shard has its own registration lock, snapshot
// cache, and close-vs-send guard, so registration churn and fan-out in one
// shard never contend with another.
type shard struct {
	mu       sync.Mutex
	subs     map[uint64]*Subscription
	snapshot []*Subscription // cached subscriber list; nil when stale

	// fanMu guards delivery against channel close: publishers acquire the
	// read side while still holding mu — so once a subscriber has been
	// snapshotted, no cancel/Close can close its channel until the fan-out
	// finishes — while cancel/Close take the write side before closing a
	// subscription channel. Lock order is mu → fanMu; cancel/Close never
	// acquire mu while holding fanMu, so the ordering cannot deadlock.
	fanMu sync.RWMutex
}

// subscribers returns the cached subscriber list, rebuilding it only after
// a subscribe/cancel invalidated it. Callers must hold sh.mu. The returned
// slice is never mutated, so it is safe to use after unlocking.
func (sh *shard) subscribers() []*Subscription {
	if sh.snapshot == nil {
		sh.snapshot = make([]*Subscription, 0, len(sh.subs))
		for _, sub := range sh.subs {
			sh.snapshot = append(sh.snapshot, sub)
		}
	}
	return sh.snapshot
}

// tierCounters is the telemetry hookup a hub exports when it represents a
// named fan-out tier.
type tierCounters struct {
	published  *telemetry.Counter
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
	forced     *telemetry.Counter
	subDropped *telemetry.Counter
}

// Hub fan-outs published samples to subscribers, dropping for slow ones.
// Subscribers are sharded across per-core lock domains; publishers
// sequence under one short-lived lock, then deliver shard by shard.
type Hub struct {
	// mu guards the publish-side state: sequencing, retention, forced
	// drops, and the closed flag.
	mu       sync.Mutex
	nextID   uint64
	seq      uint64
	closed   bool
	retain   int
	retained map[string][]Sample // channel → last `retain` samples
	// forceDrop is the number of upcoming samples to swallow before they are
	// sequenced or delivered — the chaos engine's "drop storm". Counted
	// separately from backpressure drops: backpressure depends on consumer
	// timing, forced drops are scheduled, and only the scheduled kind may
	// appear in a deterministic chaos verdict.
	forceDrop int

	shards []*shard

	subCount    atomic.Int64
	published   atomic.Uint64
	delivered   atomic.Uint64
	dropped     atomic.Uint64
	forcedDrops atomic.Uint64

	// tracer, when set, records an "nsds.publish" child span for batch
	// publishes that arrive with a trace context (PublishBatchContext).
	// Atomic so the fan-out hot path never takes a lock to check it.
	tracer atomic.Pointer[trace.Tracer]
	// tel, when set, mirrors the hub's counters into a telemetry registry
	// under a tier name. Atomic for the same reason as tracer.
	tel atomic.Pointer[tierCounters]
}

// NewHub returns an empty hub with one subscriber shard per CPU.
func NewHub() *Hub { return NewHubShards(0) }

// NewHubShards returns an empty hub with n subscriber shards (n < 1 picks
// one per CPU, capped at 16). One shard reproduces the flat single-lock
// hub — the benchmark baseline.
func NewHubShards(n int) *Hub {
	if n < 1 {
		n = gort.GOMAXPROCS(0)
		if n > 16 {
			n = 16
		}
		if n < 1 {
			n = 1
		}
	}
	h := &Hub{shards: make([]*shard, n)}
	for i := range h.shards {
		h.shards[i] = &shard{subs: make(map[uint64]*Subscription)}
	}
	return h
}

// ShardCount returns how many subscriber shards the hub fans out across.
func (h *Hub) ShardCount() int { return len(h.shards) }

// Subscribers returns the current subscriber count across all shards.
func (h *Hub) Subscribers() int { return int(h.subCount.Load()) }

// SetRetention keeps the last n samples per channel for late joiners:
// SubscribeWithCatchUp delivers them before live samples — how a data
// viewer opened mid-experiment shows history immediately. 0 disables.
func (h *Hub) SetRetention(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.retain = n
	if n <= 0 {
		h.retained = nil
		return
	}
	if h.retained == nil {
		h.retained = make(map[string][]Sample)
	}
}

// Subscribe attaches a sample-mode consumer with the given buffer depth;
// channels filters the stream (empty = everything).
func (h *Hub) Subscribe(buffer int, channels ...string) (*Subscription, error) {
	return h.subscribe(buffer, false, false, channels)
}

// SubscribeWithCatchUp attaches a sample-mode consumer and pre-loads it
// with the retained history of its channels (best effort: history beyond
// the buffer is dropped oldest-first, like any other backpressure).
func (h *Hub) SubscribeWithCatchUp(buffer int, channels ...string) (*Subscription, error) {
	return h.subscribe(buffer, true, false, channels)
}

// SubscribeBatches attaches a batch-mode consumer: whole published batches
// arrive on Batches() as shared immutable values, one channel operation
// per batch. buffer is in batches. With catchUp the retained history of
// the selected channels arrives first, as one batch.
func (h *Hub) SubscribeBatches(buffer int, catchUp bool, channels ...string) (*Subscription, error) {
	return h.subscribe(buffer, catchUp, true, channels)
}

func (h *Hub) subscribe(buffer int, catchUp, batchMode bool, channels []string) (*Subscription, error) {
	if buffer < 1 {
		buffer = 64
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("nsds: hub closed")
	}
	sub := &Subscription{id: h.nextID, hub: h, sinceSeq: h.seq}
	h.nextID++
	if len(channels) > 0 {
		sub.filter = make(map[string]bool, len(channels))
		for _, c := range channels {
			sub.filter[c] = true
		}
	}
	if batchMode {
		sub.bch = make(chan *Batch, buffer)
	} else {
		sub.ch = make(chan Sample, buffer)
	}
	// Deliver history before registering for live samples so ordering is
	// history-then-live; the sinceSeq guard keeps live fan-out from
	// re-delivering anything at or below the registration point.
	if catchUp {
		var history []Sample
		for ch, samples := range h.retained {
			if len(sub.filter) == 0 || sub.filter[ch] {
				history = append(history, samples...)
			}
		}
		sortBySeq(history)
		if batchMode {
			if len(history) > 0 {
				select {
				case sub.bch <- &Batch{Samples: history}:
					sub.delivered.Add(uint64(len(history)))
				default:
					sub.dropped.Add(uint64(len(history)))
					h.noteDropped(uint64(len(history)))
				}
			}
		} else {
			for _, s := range history {
				select {
				case sub.ch <- s:
					sub.delivered.Add(1)
				default:
					sub.dropped.Add(1)
					h.noteDropped(1)
				}
			}
		}
	}
	sh := h.shards[sub.id%uint64(len(h.shards))]
	sub.shard = sh
	sh.mu.Lock()
	sh.subs[sub.id] = sub
	sh.snapshot = nil
	sh.mu.Unlock()
	h.subCount.Add(1)
	return sub, nil
}

// DropNext makes the hub swallow the next n published samples before they
// are sequenced, retained, or delivered — as if the streaming link ate
// them. Use it to emulate NSDS loss on a deterministic schedule; forced
// drops are counted by ForcedDrops, not in the backpressure total.
func (h *Hub) DropNext(n int) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.forceDrop += n
}

// ForcedDrops returns how many samples DropNext has swallowed so far.
func (h *Hub) ForcedDrops() uint64 { return h.forcedDrops.Load() }

// PendingForcedDrops returns how many scheduled drops are still armed but
// not yet consumed — the chaos engine drains relays until this settles
// before reading a verdict.
func (h *Hub) PendingForcedDrops() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.forceDrop
}

// UseTracer wires distributed tracing into the hub: batch publishes that
// carry a trace context (PublishBatchContext) record an "nsds.publish"
// child span with batch size, subscriber count, and drops. Nil disables.
func (h *Hub) UseTracer(t *trace.Tracer) { h.tracer.Store(t) }

// UseTelemetry exports the hub's flow counters into reg under a fan-out
// tier name (e.g. "hub", "relay"): nsds.tier.{published,delivered,
// dropped,forced_drops}.<tier>, plus the cross-tier per-subscriber
// aggregate nsds.sub.dropped. A nil registry disables the export.
func (h *Hub) UseTelemetry(reg *telemetry.Registry, tier string) {
	if reg == nil {
		h.tel.Store(nil)
		return
	}
	if tier == "" {
		tier = "hub"
	}
	h.tel.Store(&tierCounters{
		published:  reg.Counter("nsds.tier.published." + tier),
		delivered:  reg.Counter("nsds.tier.delivered." + tier),
		dropped:    reg.Counter("nsds.tier.dropped." + tier),
		forced:     reg.Counter("nsds.tier.forced_drops." + tier),
		subDropped: reg.Counter("nsds.sub.dropped"),
	})
}

func (h *Hub) notePublished(n uint64) {
	h.published.Add(n)
	if t := h.tel.Load(); t != nil {
		t.published.Add(int64(n))
	}
}

func (h *Hub) noteDelivered(n uint64) {
	if n == 0 {
		return
	}
	h.delivered.Add(n)
	if t := h.tel.Load(); t != nil {
		t.delivered.Add(int64(n))
	}
}

func (h *Hub) noteDropped(n uint64) {
	if n == 0 {
		return
	}
	h.dropped.Add(n)
	if t := h.tel.Load(); t != nil {
		t.dropped.Add(int64(n))
		t.subDropped.Add(int64(n))
	}
}

func (h *Hub) noteForced(n uint64) {
	if n == 0 {
		return
	}
	h.forcedDrops.Add(n)
	if t := h.tel.Load(); t != nil {
		t.forced.Add(int64(n))
	}
}

// Publish assigns a sequence number and delivers the sample best-effort.
func (h *Hub) Publish(s Sample) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.forceDrop > 0 {
		h.forceDrop--
		h.mu.Unlock()
		h.noteForced(1)
		return
	}
	h.seq++
	s.Seq = h.seq
	h.notePublished(1)
	if h.retain > 0 {
		h.retainLocked(s)
	}
	h.mu.Unlock()

	var one [1]Sample
	one[0] = s
	h.fanOut(one[:])
}

// PublishBatch assigns consecutive sequence numbers to a burst of samples
// and fans them out with one sequencing-lock acquisition for the whole
// batch — the shape a DAQ scan produces (every channel sampled at one
// instant). The batch is delivered subscriber-major so each consumer sees
// the batch in order; samples mutate in place (their Seq fields are filled
// in) and the slice is released before the call returns — callers may
// reuse it.
func (h *Hub) PublishBatch(samples []Sample) {
	h.PublishBatchContext(context.Background(), samples)
}

// PublishBatchContext is PublishBatch with trace propagation: when the
// hub has a tracer and ctx carries a span (the coordinator's step span,
// via OnStep → daq.ScanContext), the fan-out is recorded as an
// "nsds.publish" child span — the DAQ-readback leg of the paper's step
// breakdown. Without a tracer or without a parent span the path is
// byte-for-byte the old PublishBatch.
func (h *Hub) PublishBatchContext(ctx context.Context, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	var span *trace.Span
	if tr := h.tracer.Load(); tr != nil && trace.SpanContextFromContext(ctx).IsValid() {
		_, span = tr.Start(ctx, "nsds.publish", trace.KindInternal)
		span.SetAttr("samples", strconv.Itoa(len(samples)))
		droppedBefore := h.dropped.Load()
		defer func() {
			span.SetAttr("dropped", strconv.FormatUint(h.dropped.Load()-droppedBefore, 10))
			span.End()
		}()
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.forceDrop > 0 {
		// A drop storm eats the leading samples of the batch before they are
		// sequenced — survivors keep consecutive sequence numbers.
		k := h.forceDrop
		if k > len(samples) {
			k = len(samples)
		}
		h.forceDrop -= k
		h.noteForced(uint64(k))
		samples = samples[k:]
		if len(samples) == 0 {
			h.mu.Unlock()
			return
		}
	}
	for i := range samples {
		h.seq++
		samples[i].Seq = h.seq
		if h.retain > 0 {
			h.retainLocked(samples[i])
		}
	}
	h.notePublished(uint64(len(samples)))
	h.mu.Unlock()

	if span != nil {
		span.SetAttr("subscribers", strconv.FormatInt(h.subCount.Load(), 10))
	}
	h.fanOut(samples)
}

// PublishForwarded ingests samples already sequenced by an upstream hub —
// the relay tier's publish path. Upstream sequence numbers are preserved
// (so viewers across the tree agree on sample identity and ordering) and
// the local sequence clock advances to the highest seen. Forced drops
// (DropNext) apply here exactly as they do to first-hand publishes.
func (h *Hub) PublishForwarded(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.forceDrop > 0 {
		k := h.forceDrop
		if k > len(samples) {
			k = len(samples)
		}
		h.forceDrop -= k
		h.noteForced(uint64(k))
		samples = samples[k:]
		if len(samples) == 0 {
			h.mu.Unlock()
			return
		}
	}
	for i := range samples {
		if samples[i].Seq > h.seq {
			h.seq = samples[i].Seq
		}
		if h.retain > 0 {
			h.retainLocked(samples[i])
		}
	}
	h.notePublished(uint64(len(samples)))
	h.mu.Unlock()

	h.fanOut(samples)
}

// fanOut delivers one sequenced batch to every subscriber, shard by shard,
// best-effort. The shared *Batch for batch-mode subscribers is built
// lazily, so a hub with only sample-mode subscribers never allocates one.
func (h *Hub) fanOut(samples []Sample) {
	var shared *Batch
	var delivered, dropped uint64
	for _, sh := range h.shards {
		sh.mu.Lock()
		subs := sh.subscribers()
		if len(subs) == 0 {
			sh.mu.Unlock()
			continue
		}
		// Take the shard's fan-out read lock before releasing its
		// registration lock: a cancel/Close that sneaks into the gap would
		// otherwise complete its channel close and a send to a snapshotted
		// subscriber would panic.
		sh.fanMu.RLock()
		sh.mu.Unlock()
		for _, sub := range subs {
			var d, dr uint64
			if sub.bch != nil {
				if shared == nil {
					shared = newBatch(samples)
				}
				d, dr = sub.offerBatch(shared)
			} else {
				d, dr = sub.offerSamples(samples)
			}
			delivered += d
			dropped += dr
		}
		sh.fanMu.RUnlock()
	}
	h.noteDelivered(delivered)
	h.noteDropped(dropped)
}

// retainLocked appends a sample to its channel's retention ring. Callers
// must hold h.mu and have checked h.retain > 0.
func (h *Hub) retainLocked(s Sample) {
	kept := append(h.retained[s.Channel], s)
	if len(kept) > h.retain {
		kept = kept[len(kept)-h.retain:]
	}
	h.retained[s.Channel] = kept
}

// Stats returns (published, dropped) totals.
func (h *Hub) Stats() (published, dropped uint64) {
	return h.published.Load(), h.dropped.Load()
}

// Delivered returns the total samples enqueued to subscribers — the
// numerator of the fan-out benchmarks' deliveries/s.
func (h *Hub) Delivered() uint64 { return h.delivered.Load() }

// Close shuts the hub down, closing every subscription channel.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()

	for _, sh := range h.shards {
		sh.mu.Lock()
		closing := make([]*Subscription, 0, len(sh.subs))
		for id, sub := range sh.subs {
			delete(sh.subs, id)
			closing = append(closing, sub)
		}
		sh.snapshot = nil
		sh.mu.Unlock()

		sh.fanMu.Lock()
		for _, sub := range closing {
			sub.closeChan()
		}
		sh.fanMu.Unlock()
		h.subCount.Add(-int64(len(closing)))
	}
}
