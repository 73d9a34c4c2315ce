package nsds

import (
	"context"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
)

func startRelay(t *testing.T, cfg RelayConfig) *Relay {
	t.Helper()
	r := NewRelay(cfg)
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Stop(ctx)
	})
	return r
}

func TestRelayFansOutUpstreamStream(t *testing.T) {
	up := NewHub()
	defer up.Close()
	srv := NewServer(up)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := telemetry.NewRegistry()
	relay := startRelay(t, RelayConfig{Upstream: addr, Telemetry: reg})
	waitFor(t, 2*time.Second, func() bool { return relay.Healthy() == nil })

	viewer, err := relay.Hub().SubscribeBatches(64, false)
	if err != nil {
		t.Fatal(err)
	}
	up.PublishBatch([]Sample{{Channel: "a", T: 1}, {Channel: "b", T: 1}})
	if got := seqsOf(next(t, viewer.Batches())); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("seqs = %v, want 1, 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["nsds.tier.delivered.relay"] != 2 {
		t.Fatalf("relay tier delivered = %d, want 2", snap.Counters["nsds.tier.delivered.relay"])
	}
}

// The satellite pin: a late joiner behind a relay receives the retained
// history exactly once, in order, even after the upstream connection died
// and the relay reconnected through a catch-up subscription (which replays
// upstream history that must be deduplicated).
func TestRelayReconnectCatchUpExactlyOnce(t *testing.T) {
	up := NewHub()
	defer up.Close()
	up.SetRetention(64)
	srv := NewServer(up)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	relay := startRelay(t, RelayConfig{Upstream: addr, Retention: 64})
	waitFor(t, 2*time.Second, func() bool { return relay.Healthy() == nil })

	for i := 0; i < 5; i++ {
		publishOne(up, Sample{Channel: "a", T: float64(i)})
	}
	waitFor(t, 2*time.Second, func() bool { return relay.Forwarded() == 5 })

	// Kill the upstream server; the relay loses its subscription.
	_ = srv.Close()
	waitFor(t, 2*time.Second, func() bool { return relay.Healthy() != nil })

	// Publish while the relay is down — retained upstream, invisible to
	// the relay until it reconnects.
	for i := 5; i < 9; i++ {
		publishOne(up, Sample{Channel: "a", T: float64(i)})
	}

	// Revive the server on the same address; the relay reconnects with
	// catch-up: the full retained history (seqs 1..9) replays, 1..5 are
	// deduplicated, 6..9 forward.
	srv2 := NewServer(up)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool { return relay.Forwarded() == 9 })
	if relay.Reconnects() == 0 {
		t.Fatal("reconnect not counted")
	}
	if relay.Duplicates() != 5 {
		t.Fatalf("duplicates = %d, want 5 (replayed history)", relay.Duplicates())
	}

	// The late joiner behind the relay: full history exactly once, in
	// order, spanning the outage.
	late, err := relay.Hub().SubscribeBatches(64, true)
	if err != nil {
		t.Fatal(err)
	}
	got := seqsOf(next(t, late.Batches()))
	for i, seq := range got {
		if seq != uint64(i+1) || len(got) != 9 {
			t.Fatalf("late joiner saw seqs %v, want 1..9 (exactly once, in order)", got)
		}
	}
	select {
	case b := <-late.Batches():
		t.Fatalf("duplicate delivery: seqs %v", seqsOf(b))
	case <-time.After(100 * time.Millisecond):
	}
}

// Relay-tier best effort: a wedged viewer behind the relay drops at the
// relay hub; the upstream publish path and the relay forwarder never
// block on it.
func TestRelayTierBestEffortDropsForSlowViewer(t *testing.T) {
	up := NewHub()
	defer up.Close()
	srv := NewServer(up)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	relay := startRelay(t, RelayConfig{Upstream: addr})
	waitFor(t, 2*time.Second, func() bool { return relay.Healthy() == nil })
	slow, err := relay.Hub().SubscribeBatches(1, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			up.PublishBatch([]Sample{{Channel: "a"}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("upstream publish blocked behind a slow relay viewer")
	}
	waitFor(t, 5*time.Second, func() bool { return relay.Forwarded() == 50 })
	if got := slow.Delivered() + slow.Dropped(); got != 50 {
		t.Fatalf("delivered+dropped = %d, want 50", got)
	}
	if slow.Dropped() == 0 {
		t.Fatal("slow viewer should have dropped batches")
	}
}
