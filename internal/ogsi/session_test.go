package ogsi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// dialSession opens a session to the container at addr by hand: dial,
// upgrade, check the 101.
func dialSession(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET /ogsi HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", addr, sessionProtocol); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != sessionProtocol {
		t.Fatalf("upgrade answered %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	return conn, br
}

// sendFrame writes body as one request frame and reads the reply frame.
func sendFrame(t testing.TB, conn net.Conn, br *bufio.Reader, body []byte) (int, []byte) {
	t.Helper()
	frame := append(appendFrameHeader(nil), body...)
	putFrameHeader(frame, 0)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, reply
}

func mustRequest(t testing.TB, method, url string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// busySessions counts the container's sessions that are dispatching.
func (c *Container) busySessions() int {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	n := 0
	for s := range c.sessions {
		if s.busy {
			n++
		}
	}
	return n
}

// sessionGoroutines counts goroutines running a container session.
func sessionGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "ogsi.(*Container).serveSession")
}

// TestContainerStopClosesSessions: Stop drains the sessions that
// http.Server.Shutdown cannot see. With one session idle, one parked in a
// long-poll and one mid-dispatch, Stop closes the idle one, ends the poll
// with its re-arm fault, lets the dispatch write its reply, and returns well
// inside its budget with no session goroutine left. The client and its
// transport stay reachable throughout, so nothing is closed by a finalizer;
// the client's next call fails at the transport.
func TestContainerStopClosesSessions(t *testing.T) {
	release := make(chan struct{})
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		_ = svc.SDEs.Set("last-transaction", "t0")
		svc.RegisterOp("hold", func(context.Context, Caller, json.RawMessage) (any, error) {
			<-release
			return "held", nil
		})
		c.AddService(svc)
	})
	tr := NewPinnedTransport(3)
	f.client.HTTP = &http.Client{Transport: tr}
	ctx := context.Background()

	polled := make(chan error, 1)
	go func() {
		_, err := f.client.WaitServiceData(ctx, "echo", "last-transaction", 1, 20*time.Second)
		polled <- err
	}()
	waitUntil(t, "the long-poll to park", func() bool { return f.container.busySessions() == 1 })
	held := make(chan error, 1)
	go func() {
		var out string
		err := f.client.Call(ctx, "echo", "hold", nil, &out)
		if err == nil && out != "held" {
			err = fmt.Errorf("hold answered %q", out)
		}
		held <- err
	}()
	waitUntil(t, "the dispatch to start", func() bool { return f.container.busySessions() == 2 })
	if err := f.client.Call(ctx, "echo", "echo", map[string]string{"msg": "idle"}, nil); err != nil {
		t.Fatal(err)
	}
	open := func() float64 { return f.container.Telemetry().Snapshot().Gauges[metricSessionsOpen] }
	if got := open(); got != 3 {
		t.Fatalf("%g sessions open, want 3", got)
	}

	const budget = 5 * time.Second
	stopCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	start := time.Now()
	stopped := make(chan error, 1)
	go func() { stopped <- f.container.Stop(stopCtx) }()

	if err := <-polled; !IsRemoteCode(err, CodeUnavailable) {
		t.Fatalf("parked long-poll: %v, want its re-arm fault", err)
	}
	waitUntil(t, "the idle and polled sessions to close", func() bool { return open() == 1 })
	select {
	case err := <-stopped:
		t.Fatalf("Stop returned %v with a dispatch in flight", err)
	default:
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("mid-dispatch frame: %v, want its reply", err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if took := time.Since(start); took > budget/2 {
		t.Fatalf("Stop took %v", took)
	}
	waitUntil(t, "session goroutines to exit", func() bool { return sessionGoroutines() == 0 })
	if got := open(); got != 0 {
		t.Fatalf("%g sessions open after Stop", got)
	}

	err := f.client.Call(ctx, "echo", "echo", map[string]string{"msg": "after"}, nil)
	var re *RemoteError
	if err == nil || errorsAs(err, &re) || !strings.Contains(err.Error(), "ogsi: transport") {
		t.Fatalf("call after Stop: %v, want a transport error", err)
	}
	runtime.KeepAlive(tr)
}

// TestPinnedTransportWaiterGivesUp: with its one session parked in a
// long-poll, a transport pinned at 1 queues the next call; that call's
// context ending takes it out of the queue with an error, and the slot is
// not lost: once the poll returns, calls go through on the same session.
func TestPinnedTransportWaiterGivesUp(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		_ = svc.SDEs.Set("last-transaction", "t0")
		c.AddService(svc)
	})
	f.client.HTTP = &http.Client{Transport: NewPinnedTransport(1)}
	polled := make(chan error, 1)
	go func() {
		_, err := f.client.WaitServiceData(context.Background(), "echo", "last-transaction", 1, 300*time.Millisecond)
		polled <- err
	}()
	waitUntil(t, "the long-poll to park", func() bool { return f.container.busySessions() == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := f.client.Call(ctx, "echo", "echo", map[string]string{"msg": "queued"}, nil)
	if err == nil || !strings.Contains(err.Error(), "waiting for a session") {
		t.Fatalf("queued call past its deadline: %v", err)
	}
	if err := <-polled; !IsRemoteCode(err, CodeUnavailable) {
		t.Fatalf("long-poll: %v, want its re-arm fault", err)
	}
	for i := 0; i < 3; i++ {
		if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{"msg": "after"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.container.Telemetry().Snapshot().Counters[metricSessionsAccepted]; n != 1 {
		t.Fatalf("%d sessions accepted, want 1", n)
	}
}
