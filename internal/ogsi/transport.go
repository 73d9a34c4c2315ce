package ogsi

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"neesgrid/internal/runtime"
)

// DefaultTransport bounds one exchange by defaultExchangeTimeout: headroom
// over the container's 30 s long-poll cap so WaitServiceData re-arms cleanly
// rather than erroring mid-poll.
const (
	defaultExchangeTimeout = 60 * time.Second
	sessionBufSize         = 4 << 10
)

// Transport carries OGSI envelopes to containers, one frame each way per
// envelope on sessions it keeps per container host (see session.go) in a
// runtime.ConnPool. It is an http.RoundTripper, so a Client's HTTP field —
// and a fault injector wrapped around it — takes it like any other, but it
// carries only a Client's requests: their body goes as one envelope frame to
// the host's session. A round trip writes and reads on the caller's
// goroutine and the transport starts no goroutine of its own.
//
// A round trip never resends: one that fails or whose context ends closes
// its session and returns a transport error, which NTCP's retry and the
// server's dedupe cover. A session that fails on I/O takes the host's idle
// sessions with it — most often the container went away, and they would
// fail the next calls one by one.
type Transport struct {
	limit    int                               // sessions per host; 0 is no cap
	timeout  time.Duration                     // bound on one exchange; 0 is none
	sessions *runtime.ConnPool[*clientSession] // built with limit and timeout
}

func newTransport(env runtime.Env, limit int, timeout time.Duration) *Transport {
	return &Transport{limit: limit, timeout: timeout,
		sessions: runtime.NewConnPool(env, "ogsi", limit, 0, timeout, openSession)}
}

// DefaultTransport is the transport of DefaultHTTPClient: no cap on sessions
// per host, and every exchange bounded by defaultExchangeTimeout.
var DefaultTransport = newTransport(runtime.Env{}, 0, defaultExchangeTimeout)

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
	return newTransport(runtime.Env{}, n, 0)
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
	if req.URL.Scheme != "http" {
		putBuf(buf)
		return nil, fmt.Errorf("ogsi: open session: scheme %q: sessions run on plain TCP", req.URL.Scheme)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	s, _, err := t.sessions.Get(ctx, addr)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	status, reply, err := s.exchange(body, (*buf)[:0])
	*buf = reply
	if err != nil {
		if err = t.sessions.Drop(s, err); ctx.Err() == nil {
			t.sessions.CloseIdle(addr) // the failure was the connection's
		}
		putBuf(buf)
		return nil, fmt.Errorf("ogsi: session: %w", err)
	}
	t.sessions.Put(s) // closed instead, should ctx's end have spoiled its deadline
	return newResponse(req, status, buf), nil
}

// CloseIdleConnections closes every idle session; sessions in a round trip
// finish it and stay.
func (t *Transport) CloseIdleConnections() { t.sessions.CloseIdle("") }

// clientSession is one session's connection, its read buffer and the buffer
// a request frame is written from.
type clientSession struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// openSession upgrades a connection to the container at addr. Sessions are
// entered at /ogsi, where a container serves them.
func openSession(conn net.Conn, addr string) (*clientSession, error) {
	s := &clientSession{Conn: conn, br: bufio.NewReaderSize(conn, sessionBufSize)}
	if _, err := fmt.Fprintf(conn, "GET /ogsi HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		addr, sessionProtocol); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return nil, err
	}
	_ = resp.Body.Close() // a 101 has none; any other answer ends the connection
	if resp.StatusCode != http.StatusSwitchingProtocols || !hasToken(resp.Header, "Upgrade", sessionProtocol) {
		return nil, fmt.Errorf("upgrade answered %s", resp.Status)
	}
	return s, nil
}

// exchange writes one request frame and reads the reply frame's payload
// into dst.
func (s *clientSession) exchange(payload, dst []byte) (status int, reply []byte, err error) {
	s.wbuf = append(appendFrameHeader(s.wbuf[:0]), payload...)
	putFrameHeader(s.wbuf, 0)
	if cap(s.wbuf) > maxPooledBuf {
		defer func() { s.wbuf = nil }()
	}
	if _, err = s.Write(s.wbuf); err != nil {
		return 0, dst, err
	}
	return readFrame(s.br, dst)
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
