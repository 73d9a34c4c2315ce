package nsds

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"time"

	"neesgrid/internal/runtime"
)

// DefaultWriteTimeout is the per-connection write deadline applied when
// Server.WriteTimeout is zero. A stalled viewer socket (reader gone, TCP
// window closed) trips the deadline and is disconnected instead of wedging
// its writer goroutine on flush forever — the hub itself never blocks on a
// slow viewer either way, but without a deadline the goroutine and its
// subscription leak for the life of the process.
const DefaultWriteTimeout = 30 * time.Second

// subscribeMsg is the first line a TCP client sends.
type subscribeMsg struct {
	Channels []string `json:"channels"`
	// Buffer is the subscription depth in batches (< 1 picks 64; capped at
	// 4096).
	Buffer  int  `json:"buffer"`
	CatchUp bool `json:"catch_up,omitempty"`
	// Format must be "binary", the only stream encoding. A line without it
	// — a client of the retired newline-JSON stream — is refused by
	// closing the connection with no bytes written, so an old client fails
	// loudly instead of parsing frames as text.
	Format string `json:"format,omitempty"`
}

// Server exposes a hub over TCP: the client sends one JSON subscribe line,
// then receives length-prefixed binary batch frames (wire.go), each
// encoded once and written to every connection that receives it.
type Server struct {
	hub *Hub

	// WriteTimeout is the per-connection write deadline: a connection
	// whose flush cannot complete within it is disconnected. Zero means
	// DefaultWriteTimeout; negative disables deadlines. Set before Start.
	WriteTimeout time.Duration

	tcp *runtime.ConnServer
}

// NewServer wraps a hub.
func NewServer(hub *Hub) *Server { return newServer(runtime.Env{}, hub) }

func newServer(env runtime.Env, hub *Hub) *Server {
	s := &Server{hub: hub}
	s.tcp = runtime.NewConnServer(env, "nsds", s.serve)
	return s
}

// Start listens on addr; returns the bound address.
func (s *Server) Start(addr string) (string, error) { return s.tcp.Start(addr) }

// Close stops the listener, severs every subscriber connection and waits
// for their handlers, whose subscriptions end with them.
func (s *Server) Close() error { return s.tcp.Close() }

// Stop is Close bounded by ctx, for the runtime supervisor.
func (s *Server) Stop(ctx context.Context) error { return s.tcp.Stop(ctx) }

// Healthy reports nil while the listener is accepting subscribers.
func (s *Server) Healthy() error { return s.tcp.Healthy() }

// serve streams one subscriber. The subscription ends when the server
// closes, so an idle viewer's handler returns without waiting for a batch.
func (s *Server) serve(ctx context.Context, conn net.Conn) {
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		return
	}
	var msg subscribeMsg
	if err := json.Unmarshal(sc.Bytes(), &msg); err != nil || msg.Format != "binary" {
		return
	}
	sub, err := s.hub.SubscribeBatches(msg.Buffer, msg.CatchUp, msg.Channels...)
	if err != nil {
		return
	}
	defer sub.Cancel()
	defer context.AfterFunc(ctx, sub.Cancel)()
	wt := s.WriteTimeout
	if wt == 0 {
		wt = DefaultWriteTimeout
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	write := func(b *Batch) error {
		_, err := bw.Write(b.Frame())
		return err
	}
	for b := range sub.Batches() {
		if !writeBurst(b, sub.Batches(), wt, conn.SetWriteDeadline, write, bw.Flush) {
			return
		}
	}
}

// writeBurst is the one write path of the TCP server and the SSE gateway:
// it arms the write deadline, writes b and every batch already queued
// behind it, and flushes once — a burst coalesces into one syscall while
// an idle stream still delivers every batch promptly. A viewer that cannot
// take the burst within the deadline is disconnected. It reports whether
// the stream goes on: false once a write fails or the subscription has
// closed.
func writeBurst(b *Batch, queued <-chan *Batch, wt time.Duration, setDeadline func(time.Time) error,
	write func(*Batch) error, flush func() error) bool {
	armDeadline(setDeadline, wt)
	if write(b) != nil {
		return false
	}
	for {
		select {
		case nb, ok := <-queued:
			if !ok {
				_ = flush()
				return false
			}
			if write(nb) != nil {
				return false
			}
		default:
			return flush() == nil
		}
	}
}

// armDeadline sets a write deadline wt from now (wt <= 0: none).
func armDeadline(set func(time.Time) error, wt time.Duration) {
	if wt > 0 {
		_ = set(time.Now().Add(wt))
	}
}
