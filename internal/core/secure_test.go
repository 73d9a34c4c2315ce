package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/faultnet"
	"neesgrid/internal/ogsi"
)

// replyDropper delivers the first n requests and then loses their replies:
// the site ran the call, the client never hears of it.
type replyDropper struct {
	n     atomic.Int32
	inner http.RoundTripper
}

func (d *replyDropper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := d.inner.RoundTrip(r)
	if err != nil || d.n.Add(-1) < 0 {
		return resp, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, fmt.Errorf("reply lost")
}

// TestHandshakeCallLostStillOneContext: the call that carries the handshake
// is lost — before the site (a faultnet drop) or after it (the reply). The
// retry offers the same handshake, so the site ends with one context, and
// NTCP's dedupe with one execution.
func TestHandshakeCallLostStillOneContext(t *testing.T) {
	for name, transport := range map[string]func() http.RoundTripper{
		"request dropped": func() http.RoundTripper {
			in := faultnet.NewInjector(faultnet.LAN)
			in.FailNext(1)
			return faultnet.NewTransportOver(in, ogsi.NewPinnedTransport(2))
		},
		"reply lost": func() http.RoundTripper {
			d := &replyDropper{inner: ogsi.NewPinnedTransport(2)}
			d.n.Store(1)
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, springPlugin(100), nil)
			cl := f.client(RetryPolicy{Attempts: 3, Backoff: time.Millisecond}, &http.Client{Transport: transport()})
			for i := 0; i < 3; i++ {
				if _, err := cl.Run(context.Background(), proposal(fmt.Sprintf("step-%d", i), 0.01)); err != nil {
					t.Fatal(err)
				}
			}
			snap := f.cont.Telemetry().Snapshot()
			if n := snap.Counters["ogsi.context.established"]; n != 1 {
				t.Fatalf("%d contexts established, want 1", n)
			}
			if st := f.server.Stats(); st.Executed != 3 {
				t.Fatalf("%d executions for three steps", st.Executed)
			}
			if cl.Stats().Retries != 1 {
				t.Fatalf("%d retries, want 1", cl.Stats().Retries)
			}
		})
	}
}

// TestClientCallAllocations holds the allocation ceilings of the three NTCP
// exchanges a step is built from, client and in-process site together
// (AllocsPerRun counts every malloc in the process). Measured on amd64:
// 85 / 57 / 127. The headroom, 50 / 33 / 48, covers the race detector,
// whose sync.Pool drops pooled buffers at random (118 / 73 / 145 under
// -race).
func TestClientCallAllocations(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(DefaultRetry, &http.Client{Transport: ogsi.NewPinnedTransport(2)})
	ctx := context.Background()
	i := 0
	next := func() *Proposal {
		i++
		return proposal(fmt.Sprintf("tx-%d", i), 0.01)
	}
	for w := 0; w < 20; w++ {
		if _, err := cl.Run(ctx, next()); err != nil {
			t.Fatal(err)
		}
	}
	pending := next()
	if _, err := cl.Propose(ctx, pending); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func() error
	}{
		{"Run", 135, func() error { _, err := cl.Run(ctx, next()); return err }},
		{"RunFast", 90, func() error { _, err := cl.RunFast(ctx, next()); return err }},
		{"ExecuteAndPropose", 175, func() error {
			p := next()
			_, _, err := cl.ExecuteAndPropose(ctx, pending.Name, p)
			pending = p
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(300, func() {
			if err := c.fn(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.0f times, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
