package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// poolFixture is a ConnPool of plain connections to a ConnServer that echoes
// what it reads or, when silent, reads and never answers.
type poolFixture struct {
	pool     *ConnPool[net.Conn]
	addr     string
	accepted atomic.Int32 // connections the server has taken
}

type poolShape struct {
	limit, idleCap int
	timeout        time.Duration
	silent         bool
	open           func(conn net.Conn, addr string) (net.Conn, error)
}

func newPoolFixture(t *testing.T, shape poolShape) *poolFixture {
	t.Helper()
	f := &poolFixture{}
	srv := NewConnServer("peer", func(_ context.Context, conn net.Conn) {
		f.accepted.Add(1)
		if shape.silent {
			_, _ = io.Copy(io.Discard, conn)
			return
		}
		_, _ = io.Copy(conn, conn)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	open := shape.open
	if open == nil {
		open = func(conn net.Conn, _ string) (net.Conn, error) { return conn, nil }
	}
	f.pool = NewConnPool("test", shape.limit, shape.idleCap, shape.timeout, open)
	t.Cleanup(func() { _ = f.pool.Close() })
	f.addr = addr
	return f
}

// lent is what one Get returned.
type lent struct {
	conn   net.Conn
	reused bool
	err    error
}

func (f *poolFixture) tryGet(ctx context.Context) lent {
	conn, reused, err := f.pool.Get(ctx, f.addr)
	return lent{conn, reused, err}
}

// get lends a session to the fixture's server, failing the test on an error
// or when the Get takes a second.
func (f *poolFixture) get(t *testing.T, ctx context.Context) (net.Conn, bool) {
	t.Helper()
	l := within(t, time.Second, "Get", func() lent { return f.tryGet(ctx) })
	if l.err != nil {
		t.Fatal(l.err)
	}
	return l.conn, l.reused
}

// ping is one exchange: a byte out, its echo back.
func ping(conn net.Conn) error {
	if _, err := conn.Write([]byte{1}); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, make([]byte, 1))
	return err
}

// isClosed reports whether conn was closed by this process.
func isClosed(conn net.Conn) bool {
	_, err := conn.Write([]byte{1})
	return errors.Is(err, net.ErrClosed)
}

// within runs fn and fails the test unless it returns inside d.
func within[T any](t *testing.T, d time.Duration, what string, fn func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- fn() }()
	select {
	case v := <-done:
		return v
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
		panic("unreachable")
	}
}

// TestConnPoolContract pins the client lifecycle every TCP client shares.
func TestConnPoolContract(t *testing.T) {
	bg := context.Background()
	for _, row := range []struct {
		name  string
		shape poolShape
		check func(t *testing.T, f *poolFixture)
	}{
		{name: "a session put back is lent again", check: func(t *testing.T, f *poolFixture) {
			a, reused := f.get(t, bg)
			if reused || ping(a) != nil {
				t.Fatalf("first session: reused %v", reused)
			}
			f.pool.Put(a)
			b, reused := f.get(t, bg)
			if !reused || b != a || ping(b) != nil {
				t.Fatalf("second Get: reused %v, same %v", reused, b == a)
			}
			if n := f.accepted.Load(); n != 1 {
				t.Fatalf("%d connections dialed, want 1", n)
			}
		}},
		{name: "sessions past the idle cap are closed", shape: poolShape{idleCap: 1}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			b, _ := f.get(t, bg)
			f.pool.Put(a)
			f.pool.Put(b)
			if !isClosed(b) {
				t.Fatal("a session past the idle cap was kept")
			}
			if c, reused := f.get(t, bg); !reused || c != a {
				t.Fatal("the idle session was not lent again")
			}
		}},
		{name: "a waiter is handed the session put back", shape: poolShape{limit: 1}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			waiter := make(chan lent, 1)
			go func() { waiter <- f.tryGet(bg) }()
			time.Sleep(10 * time.Millisecond) // let it queue; handing over works either way
			f.pool.Put(a)
			l := within(t, time.Second, "the waiter", func() lent { return <-waiter })
			if l.err != nil || !l.reused || l.conn != a {
				t.Fatalf("waiter got the same session %v, reused %v: %v", l.conn == a, l.reused, l.err)
			}
			if n := f.accepted.Load(); n != 1 {
				t.Fatalf("%d connections dialed under a cap of 1", n)
			}
		}},
		{name: "a waiter whose context ends gives up and the slot stays", shape: poolShape{limit: 1}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
			defer cancel()
			if _, _, err := f.pool.Get(ctx, f.addr); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "waiting for a session") {
				t.Fatalf("queued Get past its deadline: %v", err)
			}
			f.pool.Put(a)
			if b, reused := f.get(t, bg); !reused || b != a {
				t.Fatal("the session was not lent again after a waiter gave up")
			}
		}},
		{name: "a dropped session is closed, never lent again, and frees its slot", shape: poolShape{limit: 1}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			cause := fmt.Errorf("exchange failed")
			if err := f.pool.Drop(a, cause); err != cause {
				t.Fatalf("Drop = %v, want the exchange's error", err)
			}
			if !isClosed(a) {
				t.Fatal("a dropped session is still open")
			}
			if b, reused := f.get(t, bg); b == a || reused || ping(b) != nil {
				t.Fatal("a dropped session was lent again")
			}
			if n := f.accepted.Load(); n != 2 {
				t.Fatalf("%d connections dialed, want 2", n)
			}
		}},
		{name: "the context's end cuts the exchange it bounds", shape: poolShape{silent: true}, check: func(t *testing.T, f *poolFixture) {
			ctx, cancel := context.WithCancel(bg)
			a, _ := f.get(t, ctx)
			read := make(chan error, 1)
			go func() { _, err := a.Read(make([]byte, 1)); read <- err }()
			time.Sleep(10 * time.Millisecond)
			cancel()
			err := within(t, time.Second, "a read after its context ended", func() error { return <-read })
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read = %v, want the past deadline", err)
			}
			if err := f.pool.Drop(a, err); !errors.Is(err, context.Canceled) {
				t.Fatalf("Drop = %v, want the context's error", err)
			}
		}},
		{name: "a session whose context ended is not kept", check: func(t *testing.T, f *poolFixture) {
			ctx, cancel := context.WithCancel(bg)
			a, _ := f.get(t, ctx)
			if err := ping(a); err != nil {
				t.Fatal(err)
			}
			cancel() // spoils the deadline: the bound has fired by the time cancel returns
			f.pool.Put(a)
			if !isClosed(a) {
				t.Fatal("a session with a spoiled deadline was kept")
			}
			if _, reused := f.get(t, bg); reused {
				t.Fatal("a session with a spoiled deadline was lent again")
			}
		}},
		{name: "the pool's timeout bounds a lease", shape: poolShape{silent: true, timeout: 50 * time.Millisecond}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			err := within(t, time.Second, "a read past the timeout", func() error { _, err := a.Read(make([]byte, 1)); return err })
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read = %v, want the timeout", err)
			}
		}},
		{name: "Redial replaces a session on its slot", shape: poolShape{limit: 1}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			l := within(t, time.Second, "Redial at the cap", func() lent {
				b, err := f.pool.Redial(bg, a)
				return lent{conn: b, err: err}
			})
			b, err := l.conn, l.err
			if err != nil || b == nil || b == a || !isClosed(a) || ping(b) != nil {
				t.Fatal("Redial did not replace the session with a fresh one")
			}
			f.pool.Put(b)
			if c, reused := f.get(t, bg); !reused || c != b {
				t.Fatal("the redialed session was not kept")
			}
		}},
		{name: "CloseIdle closes the idle sessions only", check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			b, _ := f.get(t, bg)
			f.pool.Put(a)
			f.pool.CloseIdle(f.addr)
			if !isClosed(a) {
				t.Fatal("an idle session survived CloseIdle")
			}
			if ping(b) != nil {
				t.Fatal("CloseIdle closed a lent session")
			}
			f.pool.Put(b)
			if c, reused := f.get(t, bg); !reused || c != b {
				t.Fatal("the lent session was not kept after CloseIdle")
			}
		}},
		{name: "Sever cuts lent and idle sessions and the pool stays usable", shape: poolShape{silent: true}, check: func(t *testing.T, f *poolFixture) {
			idle, _ := f.get(t, bg)
			a, _ := f.get(t, bg)
			f.pool.Put(idle)
			read := make(chan error, 1)
			go func() { _, err := a.Read(make([]byte, 1)); read <- err }()
			time.Sleep(10 * time.Millisecond)
			f.pool.Sever()
			if err := within(t, time.Second, "a read after Sever", func() error { return <-read }); err == nil {
				t.Fatal("a severed exchange read something")
			}
			f.pool.Put(a)
			if !isClosed(idle) || !isClosed(a) {
				t.Fatal("Sever left a connection open")
			}
			if _, reused := f.get(t, bg); reused {
				t.Fatal("a severed session was lent again")
			}
		}},
		{name: "Close cuts a lent session, wakes a waiter and refuses later use", shape: poolShape{limit: 1, silent: true}, check: func(t *testing.T, f *poolFixture) {
			a, _ := f.get(t, bg)
			read := make(chan error, 1)
			go func() { _, err := a.Read(make([]byte, 1)); read <- err }()
			waiter := make(chan lent, 1)
			go func() { waiter <- f.tryGet(bg) }()
			time.Sleep(10 * time.Millisecond)
			if err := f.pool.Close(); err != nil {
				t.Fatal(err)
			}
			if err := within(t, time.Second, "a read after Close", func() error { return <-read }); err == nil {
				t.Fatal("a closed pool's exchange read something")
			}
			if l := within(t, time.Second, "a waiter after Close", func() lent { return <-waiter }); l.err == nil {
				t.Fatal("a waiter got a session from a closed pool")
			}
			if _, _, err := f.pool.Get(bg, f.addr); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("Get after Close = %v", err)
			}
			if err := f.pool.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
		}},
		{name: "a failed dial frees its slot", shape: poolShape{limit: 1}, check: func(t *testing.T, f *poolFixture) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			refused := ln.Addr().String()
			_ = ln.Close()
			for i := 0; i < 2; i++ {
				err := within(t, time.Second, "a dial to a closed port", func() error { _, _, err := f.pool.Get(bg, refused); return err })
				if err == nil || strings.Contains(err.Error(), "waiting") {
					t.Fatalf("Get %d to a closed port = %v, want the dial's error", i+1, err)
				}
			}
		}},
		{name: "a failed open closes the connection and frees its slot", shape: poolShape{limit: 1, open: func(net.Conn, string) (net.Conn, error) {
			return nil, errors.New("upgrade refused")
		}}, check: func(t *testing.T, f *poolFixture) {
			for i := 0; i < 2; i++ {
				err := within(t, time.Second, "a Get whose open fails", func() error { _, _, err := f.pool.Get(bg, f.addr); return err })
				if err == nil || !strings.Contains(err.Error(), "open session: upgrade refused") {
					t.Fatalf("Get %d = %v, want the open's error", i+1, err)
				}
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, newPoolFixture(t, row.shape)) })
	}
}
