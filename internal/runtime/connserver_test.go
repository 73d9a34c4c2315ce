package runtime

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/runtime/envtest"
)

// testNets are the networks the lifecycle contracts hold on: the kernel's
// TCP (the zero Env; its rows keep their bare names) and a fresh in-memory
// one.
func testNets() []struct {
	suffix string
	env    Env
} {
	return []struct {
		suffix string
		env    Env
	}{{"", Env{}}, {", in memory", Env{Net: envtest.NewNet()}}}
}

// connFixture is one ConnServer whose handler reads its connection until the
// read fails, or, when the row ignores ctx, waits for release whatever
// happens to the connection or to ctx.
type connFixture struct {
	env     Env
	srv     *ConnServer
	entered chan struct{} // a handler has started (later starts are not sent)
	ended   chan error    // the first handler's ctx.Err() as it returns
	running atomic.Int32  // handlers started and not yet returned
	release chan struct{} // closed at cleanup
}

func newConnFixture(t *testing.T, env Env, ignoreCtx bool) *connFixture {
	f := &connFixture{env: env, entered: make(chan struct{}, 1), ended: make(chan error, 1), release: make(chan struct{})}
	f.srv = NewConnServer(env, "test", func(ctx context.Context, conn net.Conn) {
		f.running.Add(1)
		defer f.running.Add(-1)
		select {
		case f.entered <- struct{}{}:
		default:
		}
		if ignoreCtx {
			<-f.release
		} else {
			_, _ = conn.Read(make([]byte, 1))
		}
		select {
		case f.ended <- ctx.Err():
		default:
		}
	})
	t.Cleanup(func() {
		close(f.release)
		_ = f.srv.Close()
	})
	return f
}

func (f *connFixture) start(t *testing.T) string {
	t.Helper()
	addr, err := f.srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// dial returns the client end of a connection to addr once a handler runs.
func (f *connFixture) dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := f.env.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	select {
	case <-f.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never ran")
	}
	return conn
}

// serving starts the server and returns the client end of one connection
// whose handler is running.
func (f *connFixture) serving(t *testing.T) net.Conn {
	t.Helper()
	return f.dial(t, f.start(t))
}

// TestConnServerContract pins the shutdown contract every TCP daemon shares.
func TestConnServerContract(t *testing.T) {
	for _, row := range []struct {
		name      string
		ignoreCtx bool
		check     func(t *testing.T, f *connFixture)
	}{
		{name: "an idle connection is severed", check: func(t *testing.T, f *connFixture) {
			conn := f.serving(t)
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read on a closed server's connection = %v, want the connection closed", err)
			}
		}},
		{name: "a handler blocked in Read returns before Close, its ctx done", check: func(t *testing.T, f *connFixture) {
			f.serving(t)
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-f.ended:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("handler's ctx = %v on return, want canceled", err)
				}
			default:
				t.Fatal("Close returned before the handler did")
			}
		}},
		{name: "a second Close returns nil", check: func(t *testing.T, f *connFixture) {
			f.serving(t)
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.srv.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
		}},
		{name: "Start after Close fails", check: func(t *testing.T, f *connFixture) {
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			if addr, err := f.srv.Start("127.0.0.1:0"); err == nil {
				t.Fatalf("a closed server started on %s", addr)
			}
		}},
		{name: "Stop with an expired ctx returns its error", ignoreCtx: true, check: func(t *testing.T, f *connFixture) {
			f.serving(t)
			ctx, cancel := context.WithDeadline(context.Background(), time.Now())
			defer cancel()
			if err := f.srv.Stop(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Stop = %v, want the deadline's error", err)
			}
		}},
		{name: "peers dialing during Close leave no handler running", check: func(t *testing.T, f *connFixture) {
			addr := f.start(t)
			var dialers sync.WaitGroup
			for i := 0; i < 4; i++ {
				dialers.Add(1)
				go func() {
					defer dialers.Done()
					var conns []net.Conn
					defer func() {
						for _, c := range conns {
							_ = c.Close()
						}
					}()
					for j := 0; j < 50; j++ {
						c, err := f.env.Dial(context.Background(), addr)
						if err != nil {
							return // refused: the listener is closed
						}
						conns = append(conns, c)
					}
				}()
			}
			select {
			case <-f.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("no handler ran")
			}
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			if n := f.running.Load(); n != 0 {
				t.Fatalf("%d handlers still running once Close returned", n)
			}
			dialers.Wait()
		}},
		{name: "Healthy: not started, serving, closed", check: func(t *testing.T, f *connFixture) {
			if err := f.srv.Healthy(); err == nil {
				t.Fatal("healthy before Start")
			}
			f.serving(t)
			if err := f.srv.Healthy(); err != nil {
				t.Fatalf("serving: %v", err)
			}
			if err := f.srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.srv.Healthy(); err == nil {
				t.Fatal("healthy after Close")
			}
		}},
	} {
		for _, nw := range testNets() {
			t.Run(row.name+nw.suffix, func(t *testing.T) { row.check(t, newConnFixture(t, nw.env, row.ignoreCtx)) })
		}
	}
}
