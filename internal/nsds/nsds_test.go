package nsds

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// next receives one batch or fails the test after a second.
func next(t *testing.T, batches <-chan *Batch) *Batch {
	t.Helper()
	select {
	case b, ok := <-batches:
		if !ok {
			t.Fatal("stream closed")
		}
		return b
	case <-time.After(time.Second):
		t.Fatal("no batch delivered")
	}
	return nil
}

// seqsOf flattens batches into their sequence numbers.
func seqsOf(bs ...*Batch) []uint64 {
	var out []uint64
	for _, b := range bs {
		for _, s := range b.Samples {
			out = append(out, s.Seq)
		}
	}
	return out
}

func publishOne(h *Hub, s Sample) { h.PublishBatch([]Sample{s}) }

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, err := h.SubscribeBatches(8, false)
	if err != nil {
		t.Fatal(err)
	}
	publishOne(h, Sample{Channel: "a", T: 0.01, Value: 1.5})
	b := next(t, sub.Batches())
	if len(b.Samples) != 1 {
		t.Fatalf("batch = %+v", b.Samples)
	}
	if s := b.Samples[0]; s.Channel != "a" || s.Value != 1.5 || s.Seq != 1 {
		t.Fatalf("sample = %+v", s)
	}
}

// A filter of several channels passes each of them, in publish order, and
// nothing else.
func TestHubChannelFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, _ := h.SubscribeBatches(8, false, "x", "y")
	h.PublishBatch([]Sample{{Channel: "ignored"}, {Channel: "y", Value: 1}, {Channel: "x", Value: 2}})
	publishOne(h, Sample{Channel: "ignored"})
	b := next(t, sub.Batches())
	if len(b.Samples) != 2 || b.Samples[0].Channel != "y" || b.Samples[1].Channel != "x" {
		t.Fatalf("filtered batch = %+v", b.Samples)
	}
	select {
	case b := <-sub.Batches():
		t.Fatalf("unexpected extra batch %+v", b.Samples)
	default:
	}
}

func TestHubBestEffortDropsForSlowConsumer(t *testing.T) {
	h := NewHub()
	defer h.Close()
	slow, _ := h.SubscribeBatches(2, false)
	fast, _ := h.SubscribeBatches(100, false)
	for i := 0; i < 50; i++ {
		publishOne(h, Sample{Channel: "c", Value: float64(i)})
	}
	if slow.Dropped() != 48 {
		t.Fatalf("slow consumer dropped %d, want 48", slow.Dropped())
	}
	if fast.Dropped() != 0 {
		t.Fatal("fast consumer should not drop")
	}
	// Fast consumer got everything in order.
	for i := 0; i < 50; i++ {
		if v := next(t, fast.Batches()).Samples[0].Value; v != float64(i) {
			t.Fatalf("fast consumer sample %d = %g", i, v)
		}
	}
	// The slow one kept the first two.
	if got := seqsOf(next(t, slow.Batches()), next(t, slow.Batches())); got[0] != 1 || got[1] != 2 {
		t.Fatalf("slow consumer kept %v", got)
	}
	pub, dropped := h.Stats()
	if pub != 50 || dropped != 48 {
		t.Fatalf("stats = %d published, %d dropped", pub, dropped)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, _ := h.SubscribeBatches(1, false)
	sub.Cancel()
	if _, ok := <-sub.Batches(); ok {
		t.Fatal("cancelled subscription channel should be closed")
	}
	publishOne(h, Sample{Channel: "c"}) // must not panic
	sub.Cancel()                        // idempotent
}

func TestHubClose(t *testing.T) {
	h := NewHub()
	sub, _ := h.SubscribeBatches(1, false)
	h.Close()
	if _, ok := <-sub.Batches(); ok {
		t.Fatal("close should close subscriptions")
	}
	if _, err := h.SubscribeBatches(1, false); err == nil {
		t.Fatal("subscribe after close should fail")
	}
	publishOne(h, Sample{Channel: "c"}) // no-op, no panic
	h.Close()                           // idempotent
}

// startServer serves h on a loopback port until the test ends.
func startServer(t *testing.T, h *Hub) (*Server, string) {
	t.Helper()
	srv := NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

// dial subscribes over TCP and waits until the server has registered the
// subscription.
func dial(t *testing.T, h *Hub, addr string, buffer int, catchUp bool, channels ...string) *Client {
	t.Helper()
	before := h.Subscribers()
	cl, err := Dial(addr, buffer, catchUp, channels)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	waitFor(t, time.Second, func() bool { return h.Subscribers() > before })
	return cl
}

func TestServerClientStream(t *testing.T) {
	h := NewHub()
	defer h.Close()
	_, addr := startServer(t, h)
	cl := dial(t, h, addr, 64, false)
	publishOne(h, Sample{Channel: "uiuc.lvdt1", T: 0.01, Value: 3.25})
	s := next(t, cl.Batches()).Samples[0]
	if s.Channel != "uiuc.lvdt1" || s.Value != 3.25 || s.T != 0.01 || s.Seq != 1 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestServerClientChannelFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	_, addr := startServer(t, h)
	cl := dial(t, h, addr, 64, false, "only.this")
	publishOne(h, Sample{Channel: "other", Value: 1})
	publishOne(h, Sample{Channel: "only.this", Value: 2})
	if b := next(t, cl.Batches()); len(b.Samples) != 1 || b.Samples[0].Channel != "only.this" {
		t.Fatalf("filter leaked %+v", b.Samples)
	}
}

func TestClientCloseEndsStream(t *testing.T) {
	h := NewHub()
	defer h.Close()
	_, addr := startServer(t, h)
	cl, err := Dial(addr, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	select {
	case _, ok := <-cl.Batches():
		if ok {
			t.Fatal("expected closed stream")
		}
	case <-time.After(time.Second):
		t.Fatal("stream did not close")
	}
}

func TestCollectFor(t *testing.T) {
	h := NewHub()
	defer h.Close()
	_, addr := startServer(t, h)
	cl := dial(t, h, addr, 64, false)
	for i := 0; i < 10; i++ {
		publishOne(h, Sample{Channel: "c", Value: float64(i)})
	}
	got := cl.CollectFor(100 * time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("collected %d samples, want 10", len(got))
	}
}

func TestCatchUpDeliversRetainedHistory(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(5)
	for i := 0; i < 12; i++ {
		publishOne(h, Sample{Channel: "c", T: float64(i), Value: float64(i)})
	}
	// Late joiner with catch-up gets the last 5 samples, oldest first, as
	// one batch.
	sub, err := h.SubscribeBatches(16, true)
	if err != nil {
		t.Fatal(err)
	}
	history := next(t, sub.Batches())
	if len(history.Samples) != 5 {
		t.Fatalf("history = %+v", history.Samples)
	}
	for i, s := range history.Samples {
		if s.Value != float64(7+i) {
			t.Fatalf("history sample %d = %g, want %d", i, s.Value, 7+i)
		}
	}
	if sub.Delivered() != 5 {
		t.Fatalf("delivered = %d, want 5", sub.Delivered())
	}
	// Live samples continue after history.
	publishOne(h, Sample{Channel: "c", T: 12, Value: 12})
	if s := next(t, sub.Batches()).Samples[0]; s.Value != 12 {
		t.Fatalf("live sample = %g", s.Value)
	}
	// A subscription without catch-up sees no history.
	plain, _ := h.SubscribeBatches(16, false)
	select {
	case b := <-plain.Batches():
		t.Fatalf("plain subscriber got history %+v", b.Samples)
	default:
	}
}

func TestCatchUpRespectsFilterAndOrdersAcrossChannels(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(4)
	publishOne(h, Sample{Channel: "a", Value: 1})
	publishOne(h, Sample{Channel: "b", Value: 2})
	publishOne(h, Sample{Channel: "a", Value: 3})
	sub, _ := h.SubscribeBatches(8, true, "a")
	if got := next(t, sub.Batches()).Samples; len(got) != 2 || got[0].Value != 1 || got[1].Value != 3 {
		t.Fatalf("filtered history = %+v", got)
	}
	// Unfiltered joiner sees a, b, a in publish (seq) order.
	all, _ := h.SubscribeBatches(8, true)
	if got := seqsOf(next(t, all.Batches())); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ordering = %v", got)
	}
}

func TestCatchUpOverTCP(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(10)
	_, addr := startServer(t, h)
	for i := 0; i < 3; i++ {
		publishOne(h, Sample{Channel: "c", T: float64(i), Value: float64(i)})
	}
	publishOne(h, Sample{Channel: "other"})
	cl, err := Dial(addr, 16, true, []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := cl.CollectFor(200 * time.Millisecond)
	if len(got) != 3 || got[0].Value != 0 || got[2].Value != 2 {
		t.Fatalf("tcp catch-up = %v", got)
	}
}

func TestRetentionDisabledByDefault(t *testing.T) {
	h := NewHub()
	defer h.Close()
	publishOne(h, Sample{Channel: "c", Value: 1})
	sub, _ := h.SubscribeBatches(4, true)
	select {
	case b := <-sub.Batches():
		t.Fatalf("history delivered with retention off: %+v", b.Samples)
	default:
	}
}

func TestPublishBatchSequencesAndDelivers(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	all, err := hub.SubscribeBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := hub.SubscribeBatches(64, false, "a")
	if err != nil {
		t.Fatal(err)
	}

	publishOne(hub, Sample{Channel: "a", T: 0, Value: 1})
	batch := []Sample{
		{Channel: "a", T: 1, Value: 2},
		{Channel: "b", T: 1, Value: 3},
		{Channel: "a", T: 2, Value: 4},
	}
	hub.PublishBatch(batch)

	// Sequence numbers continue across publishes and are filled into the
	// caller's slice.
	for i, s := range batch {
		if s.Seq != uint64(2+i) {
			t.Fatalf("batch[%d].Seq = %d, want %d", i, s.Seq, 2+i)
		}
	}
	// The caller may reuse its slice: the delivered batch is a copy.
	batch[0].Value = -1
	// Unfiltered subscriber sees all four in order, one batch per publish.
	b1, b2 := next(t, all.Batches()), next(t, all.Batches())
	if got := seqsOf(b1, b2); len(got) != 4 || got[0] != 1 || got[3] != 4 || len(b2.Samples) != 3 {
		t.Fatalf("seqs %v", got)
	}
	if b2.Samples[0].Value != 2 {
		t.Fatal("delivered batch aliases the publisher's slice")
	}
	// Filtered subscriber sees only channel a, still in order.
	f1, f2 := next(t, filtered.Batches()), next(t, filtered.Batches())
	if got := seqsOf(f1, f2); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("filtered seqs %v", got)
	}
	published, dropped := hub.Stats()
	if published != 4 || dropped != 0 {
		t.Fatalf("stats %d/%d, want 4/0", published, dropped)
	}
}

func TestPublishBatchDropsForSlowConsumer(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	slow, err := hub.SubscribeBatches(1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		batch := make([]Sample, 4)
		for j := range batch {
			batch[j] = Sample{Channel: "c", T: float64(4*i + j)}
		}
		hub.PublishBatch(batch)
	}
	// The buffer holds one batch: the second and third drop whole, their
	// samples counted individually.
	if got := slow.Dropped(); got != 8 {
		t.Fatalf("slow subscriber dropped %d, want 8", got)
	}
	published, dropped := hub.Stats()
	if published != 12 || dropped != 8 {
		t.Fatalf("stats %d/%d, want 12/8", published, dropped)
	}
	if got := seqsOf(next(t, slow.Batches())); len(got) != 4 || got[0] != 1 {
		t.Fatalf("kept batch seqs %v, want the first four", got)
	}
}

func TestPublishBatchRetention(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	hub.SetRetention(2)
	hub.PublishBatch([]Sample{
		{Channel: "a", Value: 1},
		{Channel: "a", Value: 2},
		{Channel: "a", Value: 3},
	})
	sub, err := hub.SubscribeBatches(8, true, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := next(t, sub.Batches()).Samples; len(got) != 2 || got[0].Value != 2 || got[1].Value != 3 {
		t.Fatalf("retained = %+v, want values 2, 3", got)
	}
}

func TestPublishBatchEmptyAndClosed(t *testing.T) {
	hub := NewHub()
	hub.PublishBatch(nil)
	hub.PublishForwarded(nil)
	hub.Close()
	hub.PublishBatch([]Sample{{Channel: "a"}})
	hub.PublishForwarded([]Sample{{Channel: "a", Seq: 9}})
	published, _ := hub.Stats()
	if published != 0 {
		t.Fatalf("published %d on empty/closed hub", published)
	}
}

// requireCancelWaitsForFanOut pins the close-vs-send guard directly: it
// parks a publisher between its subscriber snapshot and its delivery (by
// holding the shard's fan-out lock) and checks that a Cancel issued then
// cannot get past the registration lock. If publishers released mu before
// taking fanMu, the cancel would run to its close and the parked send
// would hit a closed channel ("send on closed channel"), an interleaving
// the stress loops below reach only by luck.
func requireCancelWaitsForFanOut(t *testing.T) {
	t.Helper()
	hub := newHubShards(1)
	defer hub.Close()
	sh := hub.shards[0]
	sub, err := hub.SubscribeBatches(1, false)
	if err != nil {
		t.Fatal(err)
	}
	sh.fanMu.Lock()
	published := make(chan struct{})
	go func() {
		hub.PublishBatch([]Sample{{Channel: "a"}})
		close(published)
	}()
	// The publisher has its snapshot once it holds the registration lock.
	for deadline := time.Now().Add(5 * time.Second); sh.mu.TryLock(); {
		sh.mu.Unlock()
		if time.Now().After(deadline) {
			sh.fanMu.Unlock()
			t.Fatal("publisher never held its snapshot while waiting to deliver")
		}
		runtime.Gosched()
	}
	cancelled := make(chan struct{})
	go func() {
		sub.Cancel()
		close(cancelled)
	}()
	time.Sleep(20 * time.Millisecond)
	passed := hub.Subscribers() == 0
	sh.fanMu.Unlock()
	<-published
	<-cancelled
	if passed {
		t.Fatal("a cancel got past the registration lock while a publisher held its snapshot")
	}
}

// TestCancelRacingFanOutDoesNotPanic hammers the snapshot→deliver window:
// subscribers cancel immediately after subscribing while publishers fan out
// continuously. Unless publishers hold fanMu across the mu release, a
// cancel completing in that gap closes a snapshotted channel and the
// subsequent send panics ("send on closed channel").
func TestCancelRacingFanOutDoesNotPanic(t *testing.T) {
	requireCancelWaitsForFanOut(t)
	hub := NewHub()
	defer hub.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Sample, 1+3*p)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch[0].T = float64(i)
				hub.PublishBatch(batch)
			}
		}(p)
	}
	// Tight subscribe/cancel churn with tiny buffers keeps subscribers inside
	// publisher snapshots at the moment their channels close.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				sub, err := hub.SubscribeBatches(1, false)
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				sub.Cancel()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestConcurrentPublishSubscribeCancel hammers the hub with publishers of
// single samples and of blocks, and subscribers that cancel mid-stream —
// meaningful under -race, and exercises the close-vs-send guard.
func TestConcurrentPublishSubscribeCancel(t *testing.T) {
	requireCancelWaitsForFanOut(t)
	hub := NewHub()
	defer hub.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Sample, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p%2 == 0 {
					publishOne(hub, Sample{Channel: "a", T: float64(i)})
				} else {
					for j := range batch {
						batch[j] = Sample{Channel: "b", T: float64(i + j)}
					}
					hub.PublishBatch(batch)
				}
			}
		}(p)
	}
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, err := hub.SubscribeBatches(4, false, []string{"a", "b"}[i%2])
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				// Drain a little, then cancel while publishers are active.
				for j := 0; j < 3; j++ {
					select {
					case <-sub.Batches():
					default:
					}
				}
				sub.Cancel()
			}
		}(s)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
