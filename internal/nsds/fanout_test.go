package nsds

import (
	"context"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
)

func TestShardedHubDistributesSubscribers(t *testing.T) {
	h := newHubShards(4)
	defer h.Close()
	if h.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", h.ShardCount())
	}
	for i := 0; i < 8; i++ {
		if _, err := h.SubscribeBatches(4, false); err != nil {
			t.Fatal(err)
		}
	}
	if h.Subscribers() != 8 {
		t.Fatalf("Subscribers = %d", h.Subscribers())
	}
	for _, sh := range h.shards {
		sh.mu.Lock()
		n := len(sh.subs)
		sh.mu.Unlock()
		if n != 2 {
			t.Fatalf("shard holds %d subscribers, want 2 (round-robin)", n)
		}
	}
}

func TestBatchSubscriberReceivesSharedBatch(t *testing.T) {
	h := newHubShards(2)
	defer h.Close()
	s1, err := h.SubscribeBatches(4, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.SubscribeBatches(4, false)
	if err != nil {
		t.Fatal(err)
	}
	h.PublishBatch([]Sample{{Channel: "a", T: 1}, {Channel: "b", T: 1}})
	b1 := <-s1.Batches()
	b2 := <-s2.Batches()
	if b1 != b2 {
		t.Fatal("batch subscribers should share one *Batch (encode-once)")
	}
	if len(b1.Samples) != 2 || b1.Samples[0].Seq != 1 || b1.Samples[1].Seq != 2 {
		t.Fatalf("batch = %+v", b1.Samples)
	}
}

// The per-tier pin: a slow consumer (a wedged relay or SSE viewer) loses
// whole batches while the publish path completes without blocking.
func TestBatchSubscriberBestEffortDropsForSlowConsumer(t *testing.T) {
	h := newHubShards(2)
	defer h.Close()
	slow, err := h.SubscribeBatches(1, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			h.PublishBatch([]Sample{{Channel: "a"}, {Channel: "a"}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on a slow batch subscriber")
	}
	if slow.Dropped() != 18 { // 1 batch of 2 buffered, 9×2 dropped
		t.Fatalf("dropped = %d, want 18", slow.Dropped())
	}
	b := <-slow.Batches()
	if b.Samples[0].Seq != 1 {
		t.Fatalf("kept batch starts at seq %d, want 1", b.Samples[0].Seq)
	}
}

func TestBatchSubscriberChannelFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, err := h.SubscribeBatches(4, false, "keep")
	if err != nil {
		t.Fatal(err)
	}
	h.PublishBatch([]Sample{{Channel: "skip"}, {Channel: "keep"}, {Channel: "skip"}})
	b := <-sub.Batches()
	if len(b.Samples) != 1 || b.Samples[0].Channel != "keep" {
		t.Fatalf("filtered batch = %+v", b.Samples)
	}
	// A batch with no matching channels must not arrive at all.
	h.PublishBatch([]Sample{{Channel: "skip"}})
	select {
	case b := <-sub.Batches():
		t.Fatalf("unexpected batch %+v", b.Samples)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestBatchCatchUpHistoryThenLiveExactlyOnce(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(16)
	for i := 0; i < 5; i++ {
		publishOne(h, Sample{Channel: "a", T: float64(i)})
	}
	sub, err := h.SubscribeBatches(8, true)
	if err != nil {
		t.Fatal(err)
	}
	h.PublishBatch([]Sample{{Channel: "a", T: 5}})
	var seqs []uint64
	for len(seqs) < 6 {
		select {
		case b := <-sub.Batches():
			for _, s := range b.Samples {
				seqs = append(seqs, s.Seq)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out with seqs %v", seqs)
		}
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seqs = %v: want 1..6 exactly once in order", seqs)
		}
	}
}

func TestPublishForwardedPreservesSeqsAndRetains(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(8)
	sub, err := h.SubscribeBatches(8, false)
	if err != nil {
		t.Fatal(err)
	}
	h.PublishForwarded([]Sample{{Channel: "a", Seq: 41}, {Channel: "a", Seq: 42}})
	if got := seqsOf(next(t, sub.Batches())); len(got) != 2 || got[0] != 41 || got[1] != 42 {
		t.Fatalf("seqs = %v, want upstream 41, 42", got)
	}
	// The local clock advanced past the forwarded seqs: a locally
	// published sample continues the upstream numbering.
	publishOne(h, Sample{Channel: "a"})
	if s := next(t, sub.Batches()).Samples[0]; s.Seq != 43 {
		t.Fatalf("local publish seq = %d, want 43", s.Seq)
	}
	// A late joiner's catch-up sees the forwarded history.
	late, err := h.SubscribeBatches(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if s := next(t, late.Batches()).Samples[0]; s.Seq != 41 {
		t.Fatalf("catch-up head seq = %d, want 41", s.Seq)
	}
}

func TestHubTierTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newHubShards(1)
	defer h.Close()
	h.UseTelemetry(reg, "hub")
	slow, err := h.SubscribeBatches(1, false)
	if err != nil {
		t.Fatal(err)
	}
	h.DropNext(1)
	publishOne(h, Sample{Channel: "a"})                      // forced drop
	h.PublishBatch([]Sample{{Channel: "a"}, {Channel: "a"}}) // fills the buffer
	h.PublishBatch([]Sample{{Channel: "a"}, {Channel: "a"}}) // dropped whole
	snap := reg.Snapshot()
	want := map[string]int64{
		"nsds.tier.published.hub":    4,
		"nsds.tier.delivered.hub":    2,
		"nsds.tier.dropped.hub":      2,
		"nsds.tier.forced_drops.hub": 1,
		"nsds.sub.dropped":           2,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if slow.Dropped() != 2 {
		t.Errorf("sub dropped = %d, want 2", slow.Dropped())
	}
}

func TestPendingForcedDrops(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.DropNext(3)
	if n := h.PendingForcedDrops(); n != 3 {
		t.Fatalf("pending = %d, want 3", n)
	}
	h.PublishBatch([]Sample{{Channel: "a"}, {Channel: "a"}})
	if n := h.PendingForcedDrops(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	// The storm eats the leading samples of a batch; survivors keep
	// consecutive sequence numbers.
	sub, _ := h.SubscribeBatches(4, false)
	h.PublishBatch([]Sample{{Channel: "a"}, {Channel: "b"}, {Channel: "c"}})
	if b := next(t, sub.Batches()); len(b.Samples) != 2 || b.Samples[0].Channel != "b" || b.Samples[0].Seq != 1 {
		t.Fatalf("survivors = %+v", b.Samples)
	}
	if n, f := h.PendingForcedDrops(), h.ForcedDrops(); n != 0 || f != 3 {
		t.Fatalf("pending = %d, forced = %d, want 0, 3", n, f)
	}
}

func TestLocalRelayForwardsAndDrains(t *testing.T) {
	up := NewHub()
	defer up.Close()
	down := NewHub()
	defer down.Close()
	lr, err := NewLocalRelay(up, down)
	if err != nil {
		t.Fatal(err)
	}
	viewer, err := down.SubscribeBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		up.PublishBatch([]Sample{{Channel: "a", T: float64(i)}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 10; want++ {
		s := next(t, viewer.Batches()).Samples[0]
		if s.Seq != want {
			t.Fatalf("seq = %d, want %d (order preserved through the relay)", s.Seq, want)
		}
	}
	lr.Stop()
	// The relay tier consumes forced drops scheduled against the
	// downstream hub; drain-then-read is what the chaos verdict relies on.
	if down.ForcedDrops() != 0 {
		t.Fatalf("unexpected forced drops: %d", down.ForcedDrops())
	}
}

func TestLocalRelayConsumesForcedDropsDeterministically(t *testing.T) {
	up := NewHub()
	defer up.Close()
	down := NewHub()
	defer down.Close()
	lr, err := NewLocalRelay(up, down)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Stop()
	down.DropNext(3)
	for i := 0; i < 10; i++ {
		up.PublishBatch([]Sample{{Channel: "a"}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if down.ForcedDrops() != 3 {
		t.Fatalf("relay-tier forced drops = %d, want 3", down.ForcedDrops())
	}
	if down.PendingForcedDrops() != 0 {
		t.Fatalf("pending forced drops = %d after drain", down.PendingForcedDrops())
	}
	if pub, _ := down.Stats(); pub != 7 {
		t.Fatalf("downstream published = %d, want 7", pub)
	}
}

// PendingForcedDrops returns how many scheduled drops are still armed but
// not yet consumed — the chaos engine drains relays until this settles
// before reading a verdict.
func (h *Hub) PendingForcedDrops() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.forceDrop
}
