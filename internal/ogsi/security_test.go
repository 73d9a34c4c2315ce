package ogsi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// countingService counts the executions of its one op, "count", which
// answers with the running total.
func countingService(n *atomic.Int64) *Service {
	svc := NewService("counter")
	svc.RegisterOp("count", func(context.Context, Caller, json.RawMessage) (any, error) {
		return n.Add(1), nil
	})
	return svc
}

// securityCounters reads the message-security series of a registry.
func securityCounters(reg *telemetry.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := map[string]int64{}
	for _, name := range []string{metricAuthSigned, metricAuthMAC, metricContextEstablished} {
		out[name] = snap.Counters[name]
	}
	for _, r := range contextRefusals {
		out[r.reason] = snap.Counters[metricContextRejected+r.reason]
	}
	return out
}

// expect compares the named counters and fails on the first difference.
func expect(t *testing.T, who string, got map[string]int64, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got[name] != n {
			t.Fatalf("%s: %s = %d, want %d (all: %v)", who, name, got[name], n, got)
		}
	}
}

func call(t *testing.T, cl *Client) {
	t.Helper()
	if err := cl.Call(context.Background(), "counter", "count", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFirstCallHandshakesThenMAC: one signed envelope each way, the
// handshake, then every envelope MAC'd — on the container and on the client.
func TestFirstCallHandshakesThenMAC(t *testing.T) {
	var n atomic.Int64
	tracer := trace.NewTracer("container", trace.NewRecorder(64))
	f := newFabric(t, func(c *Container) {
		c.AddService(countingService(&n))
		c.UseTracer(tracer)
	})
	clientReg := telemetry.NewRegistry()
	f.client.UseTelemetry(clientReg)
	for _, name := range []string{metricAuthSigned, metricAuthMAC, metricContextEstablished} {
		if _, ok := clientReg.Snapshot().Counters[name]; !ok {
			t.Fatalf("%s not pre-registered on the client", name)
		}
	}
	if _, ok := f.container.Telemetry().Snapshot().Gauges[metricContextActive]; !ok {
		t.Fatalf("%s not pre-registered on the container", metricContextActive)
	}
	for i := 0; i < 5; i++ {
		call(t, f.client)
	}
	if n.Load() != 5 {
		t.Fatalf("%d executions, want 5", n.Load())
	}
	want := map[string]int64{metricAuthSigned: 1, metricAuthMAC: 4, metricContextEstablished: 1,
		"unknown": 0, "expired": 0, "replay": 0, "mac": 0, "revoked": 0}
	expect(t, "container", securityCounters(f.container.Telemetry()), want)
	expect(t, "client", securityCounters(clientReg), want)
	if g := f.container.Telemetry().Snapshot().Gauges[metricContextActive]; g != 1 {
		t.Fatalf("%s = %v, want 1", metricContextActive, g)
	}
	var modes []string
	for _, sd := range tracer.Recorder().Spans() {
		if sd.Name == "gsi.verify" {
			modes = append(modes, sd.Attrs["mode"])
		}
	}
	if len(modes) != 5 || modes[0] != "signed" || modes[1] != "mac" || modes[4] != "mac" {
		t.Fatalf("gsi.verify modes %v", modes)
	}
}

// rehandshake checks the outcome every context-loss case must have: the call
// after the loss succeeds, nothing ran twice, and exactly one more signed
// handshake was made.
func rehandshake(t *testing.T, n *atomic.Int64, before, after map[string]int64, refused string) {
	t.Helper()
	if n.Load() != 2 {
		t.Fatalf("%d executions for two calls", n.Load())
	}
	if d := after[metricAuthSigned] - before[metricAuthSigned]; d != 1 {
		t.Fatalf("%d signed requests after the loss, want 1", d)
	}
	if d := after[metricContextEstablished] - before[metricContextEstablished]; d != 1 {
		t.Fatalf("%d contexts established after the loss, want 1", d)
	}
	for _, r := range contextRefusals {
		want := int64(0)
		if r.reason == refused {
			want = 1
		}
		if d := after[r.reason] - before[r.reason]; d != want {
			t.Fatalf("rejected.%s rose by %d, want %d", r.reason, d, want)
		}
	}
}

// TestContextEvictionRehandshakes: a context pushed out of a full table is
// refused as unknown, and the call is resent once, signed.
func TestContextEvictionRehandshakes(t *testing.T) {
	var n atomic.Int64
	f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
	call(t, f.client)
	_, id, info, err := openSigned(f.trust, sealRequest(t, f, []byte("{}")), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gsi.MaxContexts; i++ {
		h, err := gsi.NewHandshake()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.container.contexts.Accept(h.Offer(), id, info, f.container.cred, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	before := securityCounters(f.container.Telemetry())
	call(t, f.client)
	rehandshake(t, &n, before, securityCounters(f.container.Telemetry()), "unknown")
}

// TestContextExpiryRehandshakes: the context ends with the client's proxy;
// past it the container refuses it as expired, and the call goes through
// signed under the renewed proxy.
func TestContextExpiryRehandshakes(t *testing.T) {
	var n atomic.Int64
	var skew atomic.Int64
	f := newFabric(t, func(c *Container) {
		c.AddService(countingService(&n))
		c.clock = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	})
	alice := f.client.Cred
	proxy, err := alice.Delegate(20 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f.client.Cred = proxy
	call(t, f.client)
	if f.client.Cred, err = alice.Delegate(50 * time.Minute); err != nil {
		t.Fatal(err)
	}
	skew.Store(int64(30 * time.Minute)) // the container's clock is past the first proxy
	before := securityCounters(f.container.Telemetry())
	call(t, f.client)
	rehandshake(t, &n, before, securityCounters(f.container.Telemetry()), "expired")
}

// TestTrustStoreAddRehandshakes: a trust-set change kills every context. A
// container whose store changed refuses the context as revoked; a client
// whose store changed does not wait to be refused.
func TestTrustStoreAddRehandshakes(t *testing.T) {
	other, err := gsi.NewAuthority("/O=NEES/CN=second CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("container", func(t *testing.T) {
		var n atomic.Int64
		f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
		f.client.Trust = gsi.NewTrustStore(f.ca.Cert) // the client's own store
		call(t, f.client)
		f.trust.Add(other.Cert)
		before := securityCounters(f.container.Telemetry())
		call(t, f.client)
		rehandshake(t, &n, before, securityCounters(f.container.Telemetry()), "revoked")
	})
	t.Run("client", func(t *testing.T) {
		var n atomic.Int64
		f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
		f.client.Trust = gsi.NewTrustStore(f.ca.Cert)
		call(t, f.client)
		f.client.Trust.Add(other.Cert)
		before := securityCounters(f.container.Telemetry())
		call(t, f.client)
		rehandshake(t, &n, before, securityCounters(f.container.Telemetry()), "")
	})
}

// TestRestartedContainerRehandshakes: a container restarted on the same
// address holds neither the client's session nor its context. The session
// to the old container fails the next call at the transport, exactly once
// and with nothing run; the resend opens a session to the new container,
// whose refusal of the unknown context is answered by one signed handshake
// inside the same call.
func TestRestartedContainerRehandshakes(t *testing.T) {
	var n atomic.Int64
	f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
	f.client.HTTP = &http.Client{Transport: NewPinnedTransport(2)}
	call(t, f.client)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := f.container.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	restarted := NewContainer(f.container.cred, f.trust, f.container.gridmap)
	restarted.AddService(countingService(&n))
	if _, err := restarted.Start(f.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restarted.Stop(context.Background()) })
	before := securityCounters(restarted.Telemetry())
	err := f.client.Call(context.Background(), "counter", "count", nil, nil)
	var re *RemoteError
	if err == nil || errorsAs(err, &re) || !strings.Contains(err.Error(), "ogsi: transport") {
		t.Fatalf("first call over the old session: %v, want a transport error", err)
	}
	if n.Load() != 1 {
		t.Fatalf("%d executions after the failed call, want 1", n.Load())
	}
	call(t, f.client)
	rehandshake(t, &n, before, securityCounters(restarted.Telemetry()), "unknown")
	if got := restarted.Telemetry().Snapshot().Counters[metricSessionsAccepted]; got != 1 {
		t.Fatalf("restarted container accepted %d sessions, want 1", got)
	}
}

// TestUnmapMidContextDenies: every MAC'd request is authorized afresh, so a
// revoked gridmap entry refuses the very next call — in a MAC'd reply, with
// nothing executed — and a restored one is served under the same context.
func TestUnmapMidContextDenies(t *testing.T) {
	var n atomic.Int64
	f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
	call(t, f.client)
	f.container.gridmap.Unmap("/O=NEES/CN=alice")
	if err := f.client.Call(context.Background(), "counter", "count", nil, nil); !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("after Unmap: %v, want denied", err)
	}
	f.container.gridmap.Map("/O=NEES/CN=alice", "alice")
	call(t, f.client)
	if n.Load() != 2 {
		t.Fatalf("%d executions, want 2 (none while unmapped)", n.Load())
	}
	snap := f.container.Telemetry().Snapshot()
	if snap.Counters[metricAuthSigned] != 1 || snap.Counters[metricAuthMAC] != 2 || snap.Counters["ogsi.auth.denied"] != 1 {
		t.Fatalf("signed %d, MAC'd %d, denied %d; want 1, 2, 1", snap.Counters[metricAuthSigned],
			snap.Counters[metricAuthMAC], snap.Counters["ogsi.auth.denied"])
	}
}

// TestConcurrentCallsShareOneContext: goroutines sharing one client over a
// pinned transport race to make the first handshake, offer the same one, and
// end on one context; calls overtaking each other stay inside the replay
// window. Run with -race.
func TestConcurrentCallsShareOneContext(t *testing.T) {
	var n atomic.Int64
	f := newFabric(t, func(c *Container) { c.AddService(countingService(&n)) })
	f.client.HTTP = &http.Client{Transport: NewPinnedTransport(2)}
	const goroutines, calls = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := f.client.Call(context.Background(), "counter", "count", nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n.Load() != goroutines*calls {
		t.Fatalf("%d executions, want %d", n.Load(), goroutines*calls)
	}
	got := securityCounters(f.container.Telemetry())
	expect(t, "container", got, map[string]int64{metricContextEstablished: 1,
		"unknown": 0, "expired": 0, "replay": 0, "mac": 0, "revoked": 0})
	if got[metricAuthSigned]+got[metricAuthMAC] != goroutines*calls {
		t.Fatalf("%d signed + %d MAC'd requests for %d calls", got[metricAuthSigned], got[metricAuthMAC], goroutines*calls)
	}
}

// TestMACdCallAllocations is the allocation ceiling of one MAC'd Call, client
// and container together (AllocsPerRun counts every malloc in the process):
// 16 on amd64. The race detector's sync.Pool drops pooled buffers at random,
// which the headroom covers (33 under -race).
func TestMACdCallAllocations(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := NewService("noop")
		svc.RegisterOp("nop", func(context.Context, Caller, json.RawMessage) (any, error) { return struct{}{}, nil })
		c.AddService(svc)
	})
	f.client.HTTP = &http.Client{Transport: NewPinnedTransport(2)}
	ctx := context.Background()
	nop := func() {
		if err := f.client.Call(ctx, "noop", "nop", struct{}{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		nop()
	}
	const ceiling = 45
	allocs := testing.AllocsPerRun(300, nop)
	t.Logf("MAC'd ogsi.Call: %.0f allocations", allocs)
	if allocs > ceiling {
		t.Fatalf("MAC'd ogsi.Call allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
