package control

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"

	"neesgrid/internal/runtime"
)

// Shore-Western emulation: at UIUC, the NTCP plugin spoke "a simple TCP/IP
// protocol" to a Shore-Western control system driving the servo-hydraulics
// (paper §3.1). This file implements both ends of such a protocol:
//
//	MOVE <pos>   → OK <achieved> | ERR <reason>
//	READ         → OK <pos> <force>
//	STOP         → OK stopped            (trips the interlock)
//	RESET        → OK reset              (re-zeros the rig)
//	CLEAR        → OK cleared            (re-arms the interlock)
//	PING         → OK pong
//
// One command per line; responses are single lines.

// ShoreWesternServer serves the control protocol for one rig.
type ShoreWesternServer struct {
	rig *Rig
	tcp *runtime.ConnServer
}

// NewShoreWesternServer wraps a rig.
func NewShoreWesternServer(rig *Rig) *ShoreWesternServer {
	return newShoreWesternServer(runtime.Env{}, rig)
}

func newShoreWesternServer(env runtime.Env, rig *Rig) *ShoreWesternServer {
	s := &ShoreWesternServer{rig: rig}
	s.tcp = runtime.NewConnServer(env, "control", func(_ context.Context, conn net.Conn) { s.serve(conn) })
	return s
}

// Start listens on addr and serves until Close. Returns the bound address.
func (s *ShoreWesternServer) Start(addr string) (string, error) { return s.tcp.Start(addr) }

// Close stops the listener, severs every open connection and waits for
// their handlers: once Close returns, no command moves the rig.
func (s *ShoreWesternServer) Close() error { return s.tcp.Close() }

// serve answers one connection's commands in order. Replies are flushed only
// once no further input is buffered, so commands a client pipelines in one
// write are answered in one write; a client sending one command at a time
// gets each reply as soon as it is ready.
func (s *ShoreWesternServer) serve(conn io.ReadWriteCloser) {
	defer conn.Close()
	// A line longer than 64 KiB is no command of this protocol: it ends the
	// connection.
	r := bufio.NewReaderSize(conn, bufio.MaxScanTokenSize)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for {
		raw, rerr := r.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			return
		}
		if line := strings.TrimSpace(string(raw)); line != "" {
			if _, err := w.WriteString(s.handle(line) + "\n"); err != nil {
				return
			}
		}
		if rerr != nil { // the final line may end without a newline
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *ShoreWesternServer) handle(line string) string {
	fields := strings.Fields(line)
	switch strings.ToUpper(fields[0]) {
	case "PING":
		return "OK pong"
	case "MOVE":
		if len(fields) != 2 {
			return "ERR MOVE needs one position argument"
		}
		target, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return "ERR bad position: " + err.Error()
		}
		forces, err := s.rig.Apply([]float64{target})
		if err != nil {
			return "ERR " + err.Error()
		}
		_ = forces
		return fmt.Sprintf("OK %g", s.rig.actuator.Position())
	case "READ":
		return fmt.Sprintf("OK %g %g", s.rig.actuator.Position(), s.rig.actuator.Force())
	case "STOP":
		s.rig.Interlock().Trip("operator stop")
		return "OK stopped"
	case "RESET":
		_ = s.rig.Reset()
		return "OK reset"
	case "CLEAR":
		s.rig.Interlock().Clear()
		return "OK cleared"
	default:
		return "ERR unknown command " + fields[0]
	}
}

// ShoreWesternClient is the plugin-side client of the control protocol: one
// connection to the controller, dialed when first needed and redialed after a
// failure, and one exchange on it at a time; a second waits its turn.
type ShoreWesternClient struct {
	addr  string
	conns *runtime.ConnPool[*controllerConn]
}

// controllerConn is the connection to the controller and its buffers.
type controllerConn struct {
	net.Conn
	rw *bufio.ReadWriter
}

// NewShoreWesternClient creates a client for the controller at addr.
func NewShoreWesternClient(addr string) *ShoreWesternClient {
	return newShoreWesternClient(runtime.Env{}, addr)
}

func newShoreWesternClient(env runtime.Env, addr string) *ShoreWesternClient {
	return &ShoreWesternClient{addr: addr, conns: runtime.NewConnPool(env, "control", 1, 0, 0,
		func(conn net.Conn, _ string) (*controllerConn, error) {
			return &controllerConn{Conn: conn, rw: bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))}, nil
		})}
}

// Close severs the connection: an exchange in flight fails at once. The next
// command redials.
func (c *ShoreWesternClient) Close() error {
	c.conns.Sever()
	return nil
}

// exchange writes cmds, one or more newline-terminated command lines, in one
// flush and reads one response line per command into replies, bounded by
// ctx. A transport error drops the connection, so the next call redials.
// Every response is read even when an earlier one is an error, so the stream
// stays paired; the first ERR or malformed response is returned.
func (c *ShoreWesternClient) exchange(ctx context.Context, cmds string, replies []string) error {
	conn, _, err := c.conns.Get(ctx, c.addr)
	if err != nil {
		return err
	}
	if _, err := conn.rw.WriteString(cmds); err != nil {
		return c.conns.Drop(conn, fmt.Errorf("control: send: %w", err))
	}
	if err := conn.rw.Flush(); err != nil {
		return c.conns.Drop(conn, fmt.Errorf("control: flush: %w", err))
	}
	var first error
	for i := range replies {
		line, err := conn.rw.ReadString('\n')
		if err != nil {
			return c.conns.Drop(conn, fmt.Errorf("control: recv: %w", err))
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "ERR "):
			err = fmt.Errorf("control: controller: %s", strings.TrimPrefix(line, "ERR "))
		case !strings.HasPrefix(line, "OK"):
			err = fmt.Errorf("control: malformed response %q", line)
		}
		if err != nil && first == nil {
			first = err
		}
		replies[i] = strings.TrimSpace(strings.TrimPrefix(line, "OK"))
	}
	c.conns.Put(conn)
	return first
}

// Move commands a position and reads back position and force: MOVE and READ
// pipelined in one write, both responses collected from one exchange. ctx
// bounds the wait for the controller.
func (c *ShoreWesternClient) Move(ctx context.Context, pos float64) (float64, float64, error) {
	var replies [2]string
	if err := c.exchange(ctx, fmt.Sprintf("MOVE %g\nREAD\n", pos), replies[:]); err != nil {
		return 0, 0, err
	}
	return parseReading(replies[1])
}

// parseReading parses a READ response's "<pos> <force>" payload. Both must be
// finite: a controller reporting NaN or Inf has no measurement to give, and
// the integrator must not be handed one.
func parseReading(resp string) (pos, force float64, err error) {
	fields := strings.Fields(resp)
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("control: malformed READ response %q", resp)
	}
	if pos, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return 0, 0, err
	}
	if force, err = strconv.ParseFloat(fields[1], 64); err != nil {
		return 0, 0, err
	}
	if math.IsNaN(pos) || math.IsInf(pos, 0) || math.IsNaN(force) || math.IsInf(force, 0) {
		return 0, 0, fmt.Errorf("control: non-finite READ response %q", resp)
	}
	return pos, force, nil
}
