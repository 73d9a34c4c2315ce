package nsds

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Regression: a stalled viewer TCP socket (subscribed, never reads) used
// to wedge its writer goroutine on flush forever — the connection, the
// goroutine, and the subscription leaked for the life of the process. The
// write deadline must disconnect the dead viewer while the publish path
// keeps completing without ever blocking.
func TestServerWriteDeadlineDisconnectsStalledViewer(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := NewServer(hub)
	srv.WriteTimeout = 200 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, `{"channels":[],"buffer":64,"format":"binary"}`); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has registered the subscription, then stall:
	// this client never reads, so kernel buffers fill and the server's
	// flush blocks until the deadline trips.
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })

	// Fat samples fill the socket buffers quickly. Publishing must never
	// block regardless of the wedged connection (best-effort contract), so
	// bound each call anyway to turn a hang into a test failure.
	fat := Sample{Channel: strings.Repeat("c", 32<<10)}
	deadline := time.Now().Add(10 * time.Second)
	for hub.Subscribers() > 0 && time.Now().Before(deadline) {
		published := make(chan struct{})
		go func() {
			hub.PublishBatch([]Sample{fat})
			close(published)
		}()
		select {
		case <-published:
		case <-time.After(2 * time.Second):
			t.Fatal("publish blocked on a stalled viewer connection")
		}
		time.Sleep(time.Millisecond)
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("stalled viewer still subscribed after deadline (%d subscribers)", n)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.ConnCount() == 0 })
}

func TestServerBinaryFormatStreamsBatches(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	hub.SetRetention(8)
	srv := NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	publishOne(hub, Sample{Channel: "a", T: 0.5, Value: 1})
	cl, err := Dial(addr, 16, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hub.PublishBatch([]Sample{{Channel: "a", T: 1, Value: 2}, {Channel: "b", T: 1, Value: 3}})

	got := cl.CollectFor(500 * time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("got %d samples %+v, want 3 (catch-up + live batch)", len(got), got)
	}
	for i, s := range got {
		if s.Seq != uint64(i+1) {
			t.Fatalf("seqs out of order: %+v", got)
		}
	}
	if got[2].Channel != "b" || got[2].Value != 3 {
		t.Fatalf("binary decode mismatch: %+v", got[2])
	}
}

func TestServerBinaryChannelFilter(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr, 16, false, []string{"keep"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })
	hub.PublishBatch([]Sample{{Channel: "drop"}, {Channel: "keep"}, {Channel: "drop"}})
	got := cl.CollectFor(500 * time.Millisecond)
	if len(got) != 1 || got[0].Channel != "keep" {
		t.Fatalf("filtered stream = %+v", got)
	}
}

// Binary frames are the only stream encoding: a subscribe line that does
// not ask for them — a client of the retired newline-JSON stream, which
// sent no "format" — or that is not JSON at all is refused by closing the
// connection with no bytes written, while a binary client on the same
// server streams.
func TestServerRefusesNonBinarySubscribe(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, line := range []string{
		`{"channels":[],"buffer":16}`,
		`{"channels":[],"buffer":16,"format":"json"}`,
		`not json`,
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		hub.PublishBatch([]Sample{{Channel: "a", Value: 42}})
		got, err := io.ReadAll(conn)
		_ = conn.Close()
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: read %q, %v; want a close with zero bytes", line, got, err)
		}
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("refused lines left %d subscribers", n)
	}

	binCl, err := Dial(addr, 16, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer binCl.Close()
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })
	hub.PublishBatch([]Sample{{Channel: "a", Value: 42}})
	if b := binCl.CollectFor(500 * time.Millisecond); len(b) != 1 || b[0].Value != 42 {
		t.Fatalf("binary client got %+v", b)
	}
}

// Regression: the subscribe line's "buffer" sized a channel directly, so
// one unauthenticated line asking for 2^63-1 batches panicked the server
// goroutine ("makechan: size out of range") and took the process down.
// The depth is now capped like the gateway's: the server keeps serving,
// this subscriber included.
func TestServerClampsOversizeBuffer(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, `{"buffer":9223372036854775807,"format":"binary"}`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return hub.Subscribers() == 1 })
	hub.PublishBatch([]Sample{{Channel: "a", Value: 7}})
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := newFrameDecoder(conn).Next()
	if err != nil || len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("oversize-buffer subscriber got %+v, %v", got, err)
	}
}

// Regression: a client whose consumer stopped reading left its decode
// goroutine blocked for good on the full Batches() channel, even after
// Close — Relay.Stop leaked one per connection whenever its forward loop
// returned on cancellation with the buffer full.
func TestClientCloseStopsDecoder(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	srv := NewServer(hub)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })
	for i := 0; i < 10; i++ {
		hub.PublishBatch([]Sample{{Channel: "a", T: float64(i)}})
		time.Sleep(time.Millisecond)
	}
	// Nobody reads Batches(); wait until the decoder has filled it.
	waitFor(t, 2*time.Second, func() bool { return len(cl.Batches()) == 1 })
	time.Sleep(20 * time.Millisecond)
	_ = cl.Close()
	waitFor(t, 2*time.Second, func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "nsds.(*Client).decode")
	})
}

func TestSubscribeMsgJSONShape(t *testing.T) {
	// The wire handshake is part of the protocol surface: field names must
	// not drift or deployed clients break.
	data, _ := json.Marshal(subscribeMsg{Channels: []string{"a"}, Buffer: 4, CatchUp: true, Format: "binary"})
	want := `{"channels":["a"],"buffer":4,"catch_up":true,"format":"binary"}`
	if string(data) != want {
		t.Fatalf("subscribe msg = %s, want %s", data, want)
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ConnCount returns the number of live subscriber connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
