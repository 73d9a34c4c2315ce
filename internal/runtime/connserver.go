package runtime

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// ConnServer is the one lifecycle of a TCP server that runs a handler per
// connection: the NSDS subscriber port, the GridFTP port, and the
// Shore-Western and LabVIEW rig controllers. It owns the listener, the
// accept loop, the live connections and the handlers; its user supplies
// only what one connection does.
//
// The shutdown contract is the same for all of them. Close closes the
// listener, ends the context every handler was given, closes every
// connection, and returns only once the accept loop and every handler have
// returned: after Close nothing a peer sent can still act on a rig, a file
// or a subscription. Close is idempotent, and a closed server does not start
// again.
type ConnServer struct {
	name   string
	handle func(ctx context.Context, conn net.Conn)
	ctx    context.Context // every handler's; cancelled by Close
	cancel context.CancelFunc

	mu        sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	acceptErr error          // why the accept loop ended, once it has
	wg        sync.WaitGroup // the accept loop and one per handler
}

// NewConnServer makes a server that runs handle on each accepted connection,
// in a goroutine of its own. handle need not close conn: the server does
// once handle returns. name prefixes the server's errors.
func NewConnServer(name string, handle func(ctx context.Context, conn net.Conn)) *ConnServer {
	ctx, cancel := context.WithCancel(context.Background())
	return &ConnServer{name: name, handle: handle, ctx: ctx, cancel: cancel,
		conns: make(map[net.Conn]struct{})}
}

// Start listens on addr and accepts in the background; it returns the bound
// address. A server starts once: Start after Start or after Close fails.
func (s *ConnServer) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return "", fmt.Errorf("%s: server closed", s.name)
	case s.ln != nil:
		return "", fmt.Errorf("%s: server already started", s.name)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", s.name, addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.accept(ln)
	return ln.Addr().String(), nil
}

func (s *ConnServer) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if err == nil && s.closed {
			err = net.ErrClosed
			_ = conn.Close()
		}
		if err != nil {
			s.acceptErr = err
			s.mu.Unlock()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1) // beside Close's Wait: this loop still holds its own count
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *ConnServer) serve(conn net.Conn) {
	defer s.wg.Done()
	s.handle(s.ctx, conn)
	_ = conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener, ends every handler's context, closes every
// connection and waits for the accept loop and the handlers to return. A
// second Close waits likewise and returns nil.
func (s *ConnServer) Close() error {
	s.mu.Lock()
	var err error
	if !s.closed {
		s.closed = true
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.cancel()
		for conn := range s.conns {
			_ = conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Stop is Close bounded by ctx, for a runtime.Supervisor: when ctx ends
// first it returns ctx's error, and the handlers still running finish on
// their own.
func (s *ConnServer) Stop(ctx context.Context) error {
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%s: connections still draining: %w", s.name, ctx.Err())
	}
}

// Healthy is nil only while the accept loop runs.
func (s *ConnServer) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return fmt.Errorf("%s: server closed", s.name)
	case s.ln == nil:
		return fmt.Errorf("%s: server not started", s.name)
	case s.acceptErr != nil:
		return fmt.Errorf("%s: accept: %w", s.name, s.acceptErr)
	}
	return nil
}
