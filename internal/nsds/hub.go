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

// Subscription is one consumer's view of the stream: whole published
// batches arrive on Batches() as shared immutable *Batch values, one
// channel operation per batch — the shape the binary wire, the relay tier,
// the SSE gateway and the in-process viewers all consume.
type Subscription struct {
	id    uint64
	hub   *Hub
	shard *shard
	ch    chan *Batch

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

// Batches returns the batch channel. Closed on cancel or hub shutdown.
func (s *Subscription) Batches() <-chan *Batch { return s.ch }

// Dropped returns how many samples this subscriber lost to backpressure.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many samples were enqueued to this subscriber —
// what LocalRelay.Drain polls to know the forwarder has caught up.
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
	close(s.ch)
	sh.fanMu.Unlock()
}

// offer delivers one shared batch, best-effort. A full buffer drops the
// whole batch (its samples counted individually).
func (s *Subscription) offer(b *Batch) (delivered, dropped uint64) {
	if b.Samples[0].Seq <= s.sinceSeq {
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
	case s.ch <- d:
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

// maxBuffer caps every subscription's depth in batches, whoever asks:
// a subscribe line or a gateway query names the buffer, so an unbounded
// request must not size a channel.
const maxBuffer = 4096

// bufferDepth is a requested depth in batches as a channel capacity:
// < 1 picks 64, and nothing exceeds maxBuffer.
func bufferDepth(n int) int {
	if n < 1 {
		return 64
	}
	return min(n, maxBuffer)
}

// NewHub returns an empty hub with one subscriber shard per CPU (capped
// at 16).
func NewHub() *Hub { return newHubShards(min(max(gort.GOMAXPROCS(0), 1), 16)) }

// newHubShards returns an empty hub with n subscriber shards.
func newHubShards(n int) *Hub {
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

// SetRetention keeps the last n samples per channel for late joiners: a
// catch-up subscription receives them before live batches — how a data
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

// SubscribeBatches attaches a consumer: whole published batches arrive on
// Batches() as shared immutable values, one channel operation per batch.
// buffer is in batches (< 1 picks 64, and it is capped at 4096); channels
// filters the stream (empty = everything). With catchUp the retained
// history of the selected channels arrives first, as one batch.
func (h *Hub) SubscribeBatches(buffer int, catchUp bool, channels ...string) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("nsds: hub closed")
	}
	sub := &Subscription{id: h.nextID, hub: h, sinceSeq: h.seq, ch: make(chan *Batch, bufferDepth(buffer))}
	h.nextID++
	if len(channels) > 0 {
		sub.filter = make(map[string]bool, len(channels))
		for _, c := range channels {
			sub.filter[c] = true
		}
	}
	// Deliver history before registering for live batches so ordering is
	// history-then-live; the sinceSeq guard keeps live fan-out from
	// re-delivering anything at or below the registration point.
	if catchUp {
		var history []Sample
		for ch, samples := range h.retained {
			if len(sub.filter) == 0 || sub.filter[ch] {
				history = append(history, samples...)
			}
		}
		if len(history) > 0 {
			sortBySeq(history)
			sub.ch <- &Batch{Samples: history} // the channel is fresh and buffer >= 1
			sub.delivered.Add(uint64(len(history)))
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

// PublishBatch assigns consecutive sequence numbers to a burst of samples
// and fans them out as one shared batch with one sequencing-lock
// acquisition — the shape a DAQ scan produces (every channel sampled at
// one instant). The samples' Seq fields are filled in place, and the slice
// is copied before delivery — callers may reuse it once the call returns.
func (h *Hub) PublishBatch(samples []Sample) {
	h.PublishBatchContext(context.Background(), samples)
}

// PublishBatchContext is PublishBatch with trace propagation: when the
// hub has a tracer and ctx carries a span (the coordinator's step span,
// via OnStep → daq.ScanContext), the fan-out is recorded as an
// "nsds.publish" child span — the DAQ-readback leg of the paper's step
// breakdown.
func (h *Hub) PublishBatchContext(ctx context.Context, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	if tr := h.tracer.Load(); tr != nil && trace.SpanContextFromContext(ctx).IsValid() {
		_, span := tr.Start(ctx, "nsds.publish", trace.KindInternal)
		span.SetAttr("samples", strconv.Itoa(len(samples)))
		droppedBefore := h.dropped.Load()
		defer func() {
			span.SetAttr("subscribers", strconv.FormatInt(h.subCount.Load(), 10))
			span.SetAttr("dropped", strconv.FormatUint(h.dropped.Load()-droppedBefore, 10))
			span.End()
		}()
	}
	h.publish(samples, false)
}

// PublishForwarded ingests samples already sequenced by an upstream hub —
// the relay tier's publish path. Upstream sequence numbers are preserved
// (so viewers across the tree agree on sample identity and ordering) and
// the local sequence clock advances to the highest seen.
func (h *Hub) PublishForwarded(samples []Sample) {
	if len(samples) > 0 {
		h.publish(samples, true)
	}
}

// publish is the one sequencing path. Under the hub lock it checks the
// closed flag, lets a scheduled drop storm (DropNext) eat the leading
// samples before they are sequenced — survivors keep consecutive sequence
// numbers — then sequences and retains the rest: a fresh sequence per
// sample, or the upstream's when forwarded. The fan-out runs after the
// lock is released.
func (h *Hub) publish(samples []Sample, forwarded bool) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	if h.forceDrop > 0 {
		k := min(h.forceDrop, len(samples))
		h.forceDrop -= k
		h.noteForced(uint64(k))
		samples = samples[k:]
		if len(samples) == 0 {
			h.mu.Unlock()
			return
		}
	}
	for i := range samples {
		if !forwarded {
			h.seq++
			samples[i].Seq = h.seq
		} else if samples[i].Seq > h.seq {
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
// best-effort. The shared *Batch is built on first use, so a hub with no
// subscribers never copies one.
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
		if shared == nil {
			shared = newBatch(samples)
		}
		for _, sub := range subs {
			d, dr := sub.offer(shared)
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
			close(sub.ch)
		}
		sh.fanMu.Unlock()
		h.subCount.Add(-int64(len(closing)))
	}
}
