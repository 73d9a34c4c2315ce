package ogsi

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Fixed properties of the transport: a dial that has not connected in
// dialTimeout fails, TCP keep-alive probes a quiet session every
// keepAlivePeriod, and DefaultTransport bounds one exchange by
// defaultExchangeTimeout — headroom over the container's 30 s long-poll cap
// so WaitServiceData re-arms cleanly rather than erroring mid-poll.
const (
	dialTimeout            = 5 * time.Second
	keepAlivePeriod        = 15 * time.Second
	defaultExchangeTimeout = 60 * time.Second
	sessionBufSize         = 4 << 10
)

// Transport carries OGSI envelopes to containers, one frame each way per
// envelope on sessions it keeps per container host (see session.go). It is
// an http.RoundTripper, so a Client's HTTP field — and a fault injector
// wrapped around it — takes it like any other, but it carries only a
// Client's requests: their body goes as one envelope frame to the host's
// session. A round trip writes and reads on the caller's goroutine and the
// transport starts no goroutine of its own.
//
// A round trip never resends: one that fails or whose context ends closes
// its session and returns a transport error, which NTCP's retry and the
// server's dedupe cover. A session that fails on I/O takes the host's idle
// sessions with it — most often the container went away, and they would
// fail the next calls one by one.
type Transport struct {
	limit   int           // sessions per host; 0 is no cap
	timeout time.Duration // bound on one exchange; 0 is none

	mu    sync.Mutex
	hosts map[string]*hostSessions
}

// hostSessions is the pool for one host: open counts the sessions that
// exist or are being dialed, idle are those ready for a round trip, and
// waiters queue for a session once open is at the limit. A waiter is handed
// a session, or nil to dial one on a slot that freed.
type hostSessions struct {
	open    int
	idle    []*clientSession
	waiters []chan *clientSession
}

// DefaultTransport is the transport of DefaultHTTPClient: no cap on sessions
// per host, and every exchange bounded by defaultExchangeTimeout.
var DefaultTransport = &Transport{timeout: defaultExchangeTimeout}

// DefaultHTTPClient is the client used when Client.HTTP is nil.
var DefaultHTTPClient = &http.Client{Transport: DefaultTransport}

// NewPinnedTransport returns a transport for one long-lived site connection:
// at most n sessions (2 when n ≤ 0) to the host a coordinator-side client
// talks to, kept for as long as they work, so no step after the first pays
// a dial or queues behind another host's traffic. A session lost is redialed
// by the next round trip that needs one.
func NewPinnedTransport(n int) *Transport {
	if n <= 0 {
		n = 2
	}
	return &Transport{limit: n}
}

// RoundTrip sends req's body as one request frame on a session to req's
// host and returns the reply frame as the response: status 200 and an
// envelope, or an error status and its text. A body over the 16 MiB frame
// bound is answered 413 without being sent.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	e, ok := req.Body.(*envelope)
	if !ok {
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, fmt.Errorf("ogsi: Transport carries only an ogsi.Client's envelopes")
	}
	body := e.b
	buf := getBuf()
	if len(body) > maxBodyBytes {
		*buf = append((*buf)[:0], "ogsi: body exceeds 16 MiB"...)
		return newResponse(req, http.StatusRequestEntityTooLarge, buf), nil
	}
	ctx := req.Context()
	h, s, err := t.acquire(ctx, req.URL)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	status, reply, aborted, err := s.exchange(ctx, t.timeout, body, (*buf)[:0])
	*buf = reply
	switch {
	case err != nil:
		t.discard(h, s, !aborted)
		putBuf(buf)
		return nil, fmt.Errorf("ogsi: session: %w", err)
	case aborted:
		t.discard(h, s, false) // the reply is whole, but ctx's end spoiled the connection's deadline
	default:
		t.put(h, s)
	}
	return newResponse(req, status, buf), nil
}

// CloseIdleConnections closes every idle session; sessions in a round trip
// finish it and stay.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	var idle []*clientSession
	for _, h := range t.hosts {
		idle = append(idle, h.idle...)
		t.freeLocked(h, len(h.idle))
		h.idle = nil
	}
	t.mu.Unlock()
	for _, s := range idle {
		_ = s.conn.Close()
	}
}

// acquire returns the pool for u's host and a session to it: an idle one, a
// new one while under the limit, or the next one released.
func (t *Transport) acquire(ctx context.Context, u *url.URL) (*hostSessions, *clientSession, error) {
	t.mu.Lock()
	h := t.hosts[u.Host]
	if h == nil {
		if t.hosts == nil {
			t.hosts = make(map[string]*hostSessions)
		}
		h = &hostSessions{}
		t.hosts[u.Host] = h
	}
	if n := len(h.idle); n > 0 {
		s := h.idle[n-1]
		h.idle = h.idle[:n-1]
		t.mu.Unlock()
		return h, s, nil
	}
	if t.limit == 0 || h.open < t.limit {
		h.open++
		t.mu.Unlock()
		return t.dial(ctx, h, u)
	}
	w := make(chan *clientSession, 1)
	h.waiters = append(h.waiters, w)
	t.mu.Unlock()
	select {
	case s := <-w:
		if s == nil {
			return t.dial(ctx, h, u)
		}
		return h, s, nil
	case <-ctx.Done():
		t.mu.Lock()
		i := slices.Index(h.waiters, w)
		if i >= 0 {
			h.waiters = slices.Delete(h.waiters, i, i+1)
		}
		t.mu.Unlock()
		if i < 0 { // handed a session or a slot meanwhile: pass it on
			if s := <-w; s != nil {
				t.put(h, s)
			} else {
				t.discard(h, nil, false)
			}
		}
		return h, nil, fmt.Errorf("ogsi: waiting for a session: %w", ctx.Err())
	}
}

// dial opens a session on a slot acquire counted, giving the slot back when
// there is no session.
func (t *Transport) dial(ctx context.Context, h *hostSessions, u *url.URL) (*hostSessions, *clientSession, error) {
	s, err := openSession(ctx, u)
	if err != nil {
		t.discard(h, nil, false)
		return h, nil, fmt.Errorf("ogsi: open session: %w", err)
	}
	return h, s, nil
}

// put makes s available: to the first waiter, else idle.
func (t *Transport) put(h *hostSessions, s *clientSession) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(h.waiters) > 0 {
		w := h.waiters[0]
		h.waiters = h.waiters[1:]
		w <- s
		return
	}
	h.idle = append(h.idle, s)
}

// discard closes s (nil: a slot that got no session) and gives its slot
// back; host says the failure was the connection's, and closes the host's
// idle sessions too.
func (t *Transport) discard(h *hostSessions, s *clientSession, host bool) {
	t.mu.Lock()
	var idle []*clientSession
	if host {
		idle, h.idle = h.idle, nil
	}
	t.freeLocked(h, 1+len(idle))
	t.mu.Unlock()
	if s != nil {
		_ = s.conn.Close()
	}
	for _, s := range idle {
		_ = s.conn.Close()
	}
}

// freeLocked gives n slots back, handing each to a waiter while there are
// any: the waiter dials.
func (t *Transport) freeLocked(h *hostSessions, n int) {
	h.open -= n
	for len(h.waiters) > 0 && (t.limit == 0 || h.open < t.limit) {
		w := h.waiters[0]
		h.waiters = h.waiters[1:]
		h.open++
		w <- nil
	}
}

// clientSession is one session's connection, its read buffer and the buffer
// a request frame is written from.
type clientSession struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// aLongTimeAgo is a deadline in the past: setting it makes a blocked read or
// write return at once.
var aLongTimeAgo = time.Unix(1, 0)

// watch makes ctx's end abort whatever the session is blocked in. The stop
// function it returns reports false when ctx ended first; the connection's
// deadline is then spoiled and the session must go.
func (s *clientSession) watch(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, func() { _ = s.conn.SetDeadline(aLongTimeAgo) })
}

// openSession dials u's host and upgrades the connection.
func openSession(ctx context.Context, u *url.URL) (*clientSession, error) {
	if u.Scheme != "http" {
		return nil, fmt.Errorf("scheme %q: sessions run on plain TCP", u.Scheme)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	d := net.Dialer{Timeout: dialTimeout, KeepAlive: keepAlivePeriod}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &clientSession{conn: conn, br: bufio.NewReaderSize(conn, sessionBufSize)}
	stop := s.watch(ctx)
	err = s.upgrade(u)
	if !stop() { // ctx ended: whatever the upgrade got, the deadline is spoiled
		err = ctx.Err()
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return s, nil
}

// upgrade asks for the session and reads the container's answer.
func (s *clientSession) upgrade(u *url.URL) error {
	if _, err := fmt.Fprintf(s.conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		u.RequestURI(), u.Host, sessionProtocol); err != nil {
		return err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return err
	}
	_ = resp.Body.Close() // a 101 has none; any other answer ends the connection
	if resp.StatusCode != http.StatusSwitchingProtocols || !hasToken(resp.Header, "Upgrade", sessionProtocol) {
		return fmt.Errorf("upgrade answered %s", resp.Status)
	}
	return nil
}

// exchange writes one request frame and reads the reply frame's payload
// into dst. aborted reports that ctx ended during the exchange: err then is
// ctx's error if the exchange failed.
func (s *clientSession) exchange(ctx context.Context, timeout time.Duration, payload, dst []byte) (status int, reply []byte, aborted bool, err error) {
	if timeout > 0 {
		if err := s.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return 0, dst, false, err
		}
	}
	stop := s.watch(ctx)
	s.wbuf = append(appendFrameHeader(s.wbuf[:0]), payload...)
	putFrameHeader(s.wbuf, 0)
	if cap(s.wbuf) > maxPooledBuf {
		defer func() { s.wbuf = nil }()
	}
	if _, err = s.conn.Write(s.wbuf); err == nil {
		status, reply, err = readFrame(s.br, dst)
	}
	if aborted = !stop(); aborted && err != nil {
		err = ctx.Err()
	}
	return status, reply, aborted, err
}

// envelope is the body of a Client's request: the Transport frames its bytes
// as they are; any other RoundTripper on the way reads it as a reader.
type envelope struct {
	b   []byte
	off int
}

func (e *envelope) Read(p []byte) (int, error) {
	if e.off >= len(e.b) {
		return 0, io.EOF
	}
	n := copy(p, e.b[e.off:])
	e.off += n
	return n, nil
}

func (e *envelope) Close() error { return nil }

// replyBody is a response body over a pooled buffer, which Close gives back.
type replyBody struct {
	buf  *[]byte
	data []byte
}

func (b *replyBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func (b *replyBody) Close() error {
	if b.buf != nil {
		putBuf(b.buf)
		b.buf, b.data = nil, nil
	}
	return nil
}

// newResponse wraps a reply frame's status and payload as req's response.
func newResponse(req *http.Request, status int, buf *[]byte) *http.Response {
	text := "200 OK"
	if status != http.StatusOK {
		text = strconv.Itoa(status) + " " + http.StatusText(status)
	}
	return &http.Response{
		Status:        text,
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Body:          &replyBody{buf: buf, data: *buf},
		ContentLength: int64(len(*buf)),
		Request:       req,
	}
}
