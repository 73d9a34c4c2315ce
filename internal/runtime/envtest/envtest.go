// Package envtest holds the test halves of runtime.Env: a Clock that moves
// only when told to, and a Net that lives in memory. A test builds its
// components on runtime.Env{Clock: envtest.NewClock(t0), Net: envtest.NewNet()}
// and every clock read and every listen and dial of those components lands
// here instead of on wall time and the kernel.
package envtest

import (
	"context"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Clock is a fake clock: Now reads the time it was set to, and only Advance
// moves it. It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock returns a clock standing at start.
func NewClock(start time.Time) *Clock { return &Clock{now: start} }

// Now returns the clock's time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// Net is an in-memory network. Listen binds host:port addresses (port 0
// picks a free one), and Dial connects to a bound one or is refused. Its
// connections are buffered like a socket's: a write never waits for the
// peer to read, so a scripted peer that never reads cannot block a client's
// request. Reads and writes honour deadlines, which are wall time as the
// callers set them. No file descriptor or port of the kernel is used.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	port      int // the last port handed out
}

// NewNet returns an empty network.
func NewNet() *Net { return &Net{listeners: make(map[string]*listener)} }

// Listen binds addr.
func (n *Net) Listen(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, &net.OpError{Op: "listen", Net: "mem", Err: err}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == "0" {
		n.port++
		addr = net.JoinHostPort(host, strconv.Itoa(n.port))
	}
	if _, taken := n.listeners[addr]; taken {
		return nil, &net.OpError{Op: "listen", Net: "mem", Addr: memAddr(addr), Err: syscall.EADDRINUSE}
	}
	l := &listener{net: n, addr: memAddr(addr), wake: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener bound at addr; the connection waits in its
// backlog until accepted.
func (n *Net) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: err}
	}
	n.mu.Lock()
	l := n.listeners[addr]
	n.port++
	local := memAddr(net.JoinHostPort("127.0.0.1", strconv.Itoa(n.port)))
	n.mu.Unlock()
	client, server := newPair(local, memAddr(addr))
	if l == nil || !l.enqueue(server) {
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: memAddr(addr), Err: syscall.ECONNREFUSED}
	}
	return client, nil
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// listener is a bound address and its backlog of dialed connections.
type listener struct {
	net  *Net
	addr memAddr

	mu      sync.Mutex
	backlog []net.Conn
	closed  bool
	wake    chan struct{} // closed and replaced when backlog or closed change
}

func (l *listener) enqueue(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.backlog = append(l.backlog, c)
	close(l.wake)
	l.wake = make(chan struct{})
	return true
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
		}
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			l.mu.Unlock()
			return c, nil
		}
		wake := l.wake
		l.mu.Unlock()
		<-wake
		l.mu.Lock()
	}
}

// Close unbinds the address and refuses the connections still waiting to
// be accepted.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.backlog
	l.backlog = nil
	close(l.wake)
	l.mu.Unlock()
	for _, c := range pending {
		c.Close()
	}
	l.net.mu.Lock()
	delete(l.net.listeners, string(l.addr))
	l.net.mu.Unlock()
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// pair is the shared state of a connection's two ends: one lock, and one
// channel closed and replaced on every change, which wakes whichever end is
// waiting to re-check its buffer, its peer and its deadline.
type pair struct {
	mu   sync.Mutex
	wake chan struct{}
}

func (p *pair) changed() {
	close(p.wake)
	p.wake = make(chan struct{})
}

// end is one side of a connection. in holds what the peer wrote and this
// end has not read yet.
type end struct {
	p                           *pair
	peer                        *end
	local, remote               memAddr
	in                          []byte
	closed, writeClosed         bool
	readDeadline, writeDeadline time.Time
}

func newPair(client, server memAddr) (*end, *end) {
	p := &pair{wake: make(chan struct{})}
	c := &end{p: p, local: client, remote: server}
	s := &end{p: p, local: server, remote: client, peer: c}
	c.peer = s
	return c, s
}

func (e *end) opError(op string, err error) error {
	return &net.OpError{Op: op, Net: "mem", Source: e.local, Addr: e.remote, Err: err}
}

func (e *end) Read(b []byte) (int, error) {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	for {
		switch {
		case e.closed:
			return 0, e.opError("read", net.ErrClosed)
		case len(e.in) > 0:
			n := copy(b, e.in)
			e.in = e.in[n:]
			return n, nil
		case e.peer.closed || e.peer.writeClosed:
			return 0, io.EOF
		}
		if err := e.wait(e.readDeadline); err != nil {
			return 0, e.opError("read", err)
		}
	}
}

func (e *end) Write(b []byte) (int, error) {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	switch {
	case e.closed:
		return 0, e.opError("write", net.ErrClosed)
	case e.writeClosed || e.peer.closed:
		return 0, e.opError("write", syscall.EPIPE)
	case !e.writeDeadline.IsZero() && !time.Now().Before(e.writeDeadline):
		return 0, e.opError("write", os.ErrDeadlineExceeded)
	}
	e.peer.in = append(e.peer.in, b...)
	e.p.changed()
	return len(b), nil
}

// wait releases the lock until the pair changes or deadline passes; it is
// called, and returns, with the lock held.
func (e *end) wait(deadline time.Time) error {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	wake := e.p.wake
	e.p.mu.Unlock()
	defer e.p.mu.Lock()
	select {
	case <-wake:
	case <-expired:
	}
	return nil
}

// Close ends this side: the peer reads what is buffered and then EOF, and
// its writes fail.
func (e *end) Close() error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	if !e.closed {
		e.closed = true
		e.in = nil
		e.p.changed()
	}
	return nil
}

// CloseWrite half-closes the connection, as (*net.TCPConn).CloseWrite does:
// the peer reads what is buffered and then EOF, and this side still reads.
func (e *end) CloseWrite() error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	e.writeClosed = true
	e.p.changed()
	return nil
}

func (e *end) LocalAddr() net.Addr  { return e.local }
func (e *end) RemoteAddr() net.Addr { return e.remote }

func (e *end) SetDeadline(t time.Time) error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	e.readDeadline, e.writeDeadline = t, t
	e.p.changed()
	return nil
}

func (e *end) SetReadDeadline(t time.Time) error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	e.readDeadline = t
	e.p.changed()
	return nil
}

func (e *end) SetWriteDeadline(t time.Time) error {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	e.writeDeadline = t
	e.p.changed()
	return nil
}
