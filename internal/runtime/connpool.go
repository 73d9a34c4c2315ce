package runtime

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// Fixed properties of every client connection: a dial that has not connected
// in dialTimeout fails, and TCP keep-alive probes a quiet connection every
// keepAlivePeriod.
const (
	dialTimeout     = 5 * time.Second
	keepAlivePeriod = 15 * time.Second
)

var dialer = net.Dialer{Timeout: dialTimeout, KeepAlive: keepAlivePeriod}

// Dial opens a TCP connection to addr. It is the one dial of the module's
// clients and the real Env's: a ConnPool dials through its Env, and a client
// that holds a single connection for its whole life (an NSDS subscription)
// calls it directly.
func Dial(ctx context.Context, addr string) (net.Conn, error) {
	return dialer.DialContext(ctx, "tcp", addr)
}

// ConnPool is the one lifecycle of a TCP client's connections, the twin of
// ConnServer: the OGSI session transport, the GridFTP client and the
// Shore-Western and LabVIEW rig clients. It owns the dial, the idle sessions
// per address, the callers waiting for a session once an address is at its
// cap, the bound on an exchange and the severing of connections; its user
// supplies only the session type S, made from a fresh connection by open.
//
// A session is lent by Get and comes back by Put (the exchange ended cleanly)
// or Drop (it failed: the session is closed, never lent again). While lent,
// the session is bounded by the context Get was given: the context's end sets
// a deadline in the past, so whatever the exchange is blocked in returns at
// once, and the session is not kept. Close severs every connection, idle and
// lent, and refuses later use; Sever does the same but leaves the pool usable.
type ConnPool[S net.Conn] struct {
	env     Env
	name    string
	open    func(conn net.Conn, addr string) (S, error)
	limit   int           // sessions per address, open or being dialed; 0 is no cap
	idleCap int           // idle sessions kept per address; 0 is no cap
	timeout time.Duration // bound on one lease; 0 is none

	mu     sync.Mutex
	closed bool
	addrs  map[string]*addrConns[S]
	lent   map[net.Conn]lease[S]
}

// addrConns is the pool for one address: open counts the sessions that
// exist or are being dialed, idle are those ready for an exchange (the most
// recently used last), and waiters queue for a session once open is at the
// limit.
type addrConns[S net.Conn] struct {
	addr    string
	open    int
	idle    []S
	waiters []chan grant[S]
}

// grant is what a waiter is handed: a session to reuse, or, when reuse is
// false, a slot that freed, on which the waiter dials.
type grant[S net.Conn] struct {
	s     S
	reuse bool
}

// lease is a lent session's address and the context bounding it; stop
// disarms the bound and reports false when the context ended first.
type lease[S net.Conn] struct {
	at   *addrConns[S]
	ctx  context.Context
	stop func() bool
}

// NewConnPool makes a pool that dials on env's network and opens its sessions
// with open, called on each freshly dialed connection (an error closes the
// connection). limit caps the sessions per address, idleCap the idle ones
// kept, and timeout bounds each lease from Get to Put or Drop; 0 is no cap or
// bound. name prefixes the pool's errors.
func NewConnPool[S net.Conn](env Env, name string, limit, idleCap int, timeout time.Duration, open func(conn net.Conn, addr string) (S, error)) *ConnPool[S] {
	return &ConnPool[S]{env: env, name: name, open: open, limit: limit, idleCap: idleCap, timeout: timeout,
		addrs: make(map[string]*addrConns[S]), lent: make(map[net.Conn]lease[S])}
}

// Get lends a session to addr: the most recently used idle one (reused is
// then true), a new one while the address is under its cap, or else the next
// one released, waiting for it as long as ctx allows.
func (p *ConnPool[S]) Get(ctx context.Context, addr string) (s S, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return s, false, p.errClosed()
	}
	a := p.addrs[addr]
	if a == nil {
		a = &addrConns[S]{addr: addr}
		p.addrs[addr] = a
	}
	if n := len(a.idle); n > 0 {
		s = a.idle[n-1]
		a.idle = a.idle[:n-1]
		p.lendLocked(ctx, a, s) // cannot fail: the pool is open
		p.mu.Unlock()
		return s, true, nil
	}
	if p.limit == 0 || a.open < p.limit {
		a.open++
		p.mu.Unlock()
		s, err = p.dial(ctx, a)
		return s, false, err
	}
	w := make(chan grant[S], 1)
	a.waiters = append(a.waiters, w)
	p.mu.Unlock()
	select {
	case g := <-w:
		if !g.reuse {
			s, err = p.dial(ctx, a)
			return s, false, err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := p.lendLocked(ctx, a, g.s); err != nil {
			return s, false, err
		}
		return g.s, true, nil
	case <-ctx.Done():
		p.mu.Lock()
		defer p.mu.Unlock()
		if i := slices.Index(a.waiters, w); i >= 0 {
			a.waiters = slices.Delete(a.waiters, i, i+1)
		} else if g := <-w; g.reuse { // handed a session or a slot meanwhile: pass it on
			p.keepLocked(a, g.s)
		} else {
			p.freeLocked(a, 1)
		}
		return s, false, fmt.Errorf("%s: waiting for a session: %w", p.name, ctx.Err())
	}
}

// dial opens a session on a slot Get counted, giving the slot back when there
// is no session. The connection is lent from the moment it connects, so open
// runs under ctx and the pool's bound, and Sever and Close reach it.
func (p *ConnPool[S]) dial(ctx context.Context, a *addrConns[S]) (s S, err error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	var conn net.Conn
	if closed {
		err = p.errClosed()
	} else if conn, err = p.env.Dial(ctx, a.addr); err != nil {
		err = fmt.Errorf("%s: %w", p.name, err)
	}
	if err != nil {
		p.mu.Lock()
		p.freeLocked(a, 1)
		p.mu.Unlock()
		return s, err
	}
	p.mu.Lock()
	err = p.lendLocked(ctx, a, conn)
	p.mu.Unlock()
	if err != nil {
		return s, err
	}
	if s, err = p.open(conn, a.addr); err != nil {
		return s, p.drop(conn, fmt.Errorf("%s: open session: %w", p.name, err))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.lent[conn]
	if !ok { // severed while opening; its slot is free already
		_ = conn.Close()
		return s, fmt.Errorf("%s: session severed as it opened", p.name)
	}
	delete(p.lent, conn)
	p.lent[s] = l
	return s, nil
}

// lendLocked records conn, a session or the connection one is being opened
// on, as lent, bounded by p's timeout and by ctx. A closed pool lends
// nothing: it closes conn and gives its slot back.
func (p *ConnPool[S]) lendLocked(ctx context.Context, a *addrConns[S], conn net.Conn) error {
	if p.closed {
		p.freeLocked(a, 1)
		_ = conn.Close()
		return p.errClosed()
	}
	if p.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(p.timeout))
	}
	stop := unbounded
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = conn.SetDeadline(aLongTimeAgo) })
	}
	p.lent[conn] = lease[S]{at: a, ctx: ctx, stop: stop}
	return nil
}

// aLongTimeAgo is a deadline in the past: setting it makes a blocked read or
// write return at once.
var aLongTimeAgo = time.Unix(1, 0)

func unbounded() bool { return true }

// Put takes back a session whose exchange ended cleanly: it goes to the first
// waiter, else idle while under the idle cap. A session whose context ended
// during the lease, or one severed meanwhile, is closed instead.
func (p *ConnPool[S]) Put(s S) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.lent[s]
	if !ok {
		_ = s.Close()
		return
	}
	delete(p.lent, s)
	if !l.stop() {
		p.freeLocked(l.at, 1)
		_ = s.Close()
		return
	}
	p.keepLocked(l.at, s)
}

// keepLocked hands s to the first waiter, else keeps it idle while under the
// idle cap, else closes it.
func (p *ConnPool[S]) keepLocked(a *addrConns[S], s S) {
	switch {
	case len(a.waiters) > 0:
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		w <- grant[S]{s: s, reuse: true}
	case p.closed || p.idleCap > 0 && len(a.idle) >= p.idleCap:
		p.freeLocked(a, 1)
		_ = s.Close()
	default:
		a.idle = append(a.idle, s)
	}
}

// Drop closes a session whose exchange failed and gives its slot back. It
// returns err, or the context's error when the context ending is what cut
// the exchange short.
func (p *ConnPool[S]) Drop(s S, err error) error { return p.drop(s, err) }

func (p *ConnPool[S]) drop(conn net.Conn, err error) error {
	p.mu.Lock()
	l, ok := p.lent[conn]
	if ok {
		delete(p.lent, conn)
		p.freeLocked(l.at, 1)
	}
	p.mu.Unlock()
	_ = conn.Close()
	if ok && !l.stop() && err != nil {
		return l.ctx.Err()
	}
	return err
}

// Redial closes a lent session that failed and lends a freshly dialed one to
// the same address in its place, on its slot.
func (p *ConnPool[S]) Redial(ctx context.Context, s S) (S, error) {
	p.mu.Lock()
	l, ok := p.lent[s]
	delete(p.lent, s)
	p.mu.Unlock()
	_ = s.Close()
	if !ok {
		var zero S
		return zero, fmt.Errorf("%s: session severed", p.name)
	}
	l.stop()
	return p.dial(ctx, l.at)
}

// freeLocked gives n slots of a back, handing each to a waiter while there
// are any: the waiter dials.
func (p *ConnPool[S]) freeLocked(a *addrConns[S], n int) {
	a.open -= n
	for len(a.waiters) > 0 && (p.limit == 0 || a.open < p.limit) {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.open++
		w <- grant[S]{}
	}
}

// CloseIdle closes the idle sessions to addr, or to every address when addr
// is empty; lent sessions are left to their exchanges.
func (p *ConnPool[S]) CloseIdle(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closeIdleLocked(addr)
}

// closeIdleLocked is CloseIdle under the lock. Closing a connection only
// fails its blocked reads and writes, so it is safe under the lock.
func (p *ConnPool[S]) closeIdleLocked(addr string) {
	for _, a := range p.addrs {
		if addr == "" || a.addr == addr {
			for _, s := range a.idle {
				_ = s.Close()
			}
			p.freeLocked(a, len(a.idle))
			a.idle = nil
		}
	}
}

// Sever closes every connection, idle and lent: an exchange in flight fails,
// and its session is not kept. The pool stays usable; the next Get dials.
func (p *ConnPool[S]) Sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.severLocked()
}

// Close severs every connection and refuses later use: a Get waiting for a
// session, and every Get after, fails, and a dial in progress is closed as
// it connects. A second Close does nothing.
func (p *ConnPool[S]) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.severLocked()
	return nil
}

// severLocked closes every idle and lent connection and frees their slots.
func (p *ConnPool[S]) severLocked() {
	p.closeIdleLocked("")
	for conn, l := range p.lent {
		l.stop()
		_ = conn.Close()
		p.freeLocked(l.at, 1)
	}
	clear(p.lent)
}

func (p *ConnPool[S]) errClosed() error { return fmt.Errorf("%s: client closed", p.name) }
