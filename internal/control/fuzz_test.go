package control

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"neesgrid/internal/runtime"
	"neesgrid/internal/runtime/envtest"
)

// scriptedConn is one controller connection whose input is fixed: Read
// hands out the script chunk bytes at a time (all of it at once when chunk
// is 0), Write records the server's replies and counts its writes.
type scriptedConn struct {
	in     []byte
	chunk  int
	out    bytes.Buffer
	writes int
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	if c.chunk > 0 && c.chunk < len(p) {
		p = p[:c.chunk]
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

func (c *scriptedConn) Close() error { return nil }

// replyPeer is a controller on an in-memory network that answers from a
// script, whatever it is sent: the first connection after script is stored
// gets those bytes, then the end of the stream; a later one gets only the
// end, as the script is spent.
type replyPeer struct {
	env    runtime.Env
	addr   string
	script atomic.Pointer[[]byte]
}

func newReplyPeer(f *testing.F) *replyPeer {
	p := &replyPeer{env: runtime.Env{Net: envtest.NewNet()}}
	srv := runtime.NewConnServer(p.env, "reply-peer", func(_ context.Context, conn net.Conn) {
		if in := p.script.Swap(nil); in != nil {
			_, _ = conn.Write(*in)
		}
		_ = conn.(interface{ CloseWrite() error }).CloseWrite()
		_, _ = io.Copy(io.Discard, conn)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	p.addr = addr
	return p
}

// FuzzShoreWesternReply feeds arbitrary bytes to the client as what the
// controller answers a MOVE (two reply lines: MOVE's and READ's) and then a
// READ. The replies are a trust boundary too: whatever arrives, the client
// must not panic, and every position and force it accepts must be finite.
func FuzzShoreWesternReply(f *testing.F) {
	for _, seed := range []string{
		"OK 0.01\nOK 0.01 1250.5\nOK 0 0\n",
		"OK 0.01\nOK NaN 1\nOK 1 +Inf\n",
		"OK 0.01\nOK 0.01 -Inf\nOK inf nan\n",
		"OK 0.01\nOK 1e400 1\nOK 0x1p-4 -0\n",
		"ERR interlock tripped\nOK 0 0\nERR stopped\n",
		"OK\nOK 1 2 3\nOK\n",
		"OK 0.01\r\nOK  0.01\t7 \r\nOK 0",
		"",
	} {
		f.Add([]byte(seed))
	}
	peer := newReplyPeer(f)
	f.Fuzz(func(t *testing.T, replies []byte) {
		peer.script.Store(&replies)
		c := newShoreWesternClient(peer.env, peer.addr)
		defer c.Close()
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if pos, force, err := c.Move(context.Background(), 0.01); err == nil && !(finite(pos) && finite(force)) {
			t.Fatalf("MOVE accepted pos %v force %v from %q", pos, force, replies)
		}
		if pos, force, err := c.Read(); err == nil && !(finite(pos) && finite(force)) {
			t.Fatalf("READ accepted pos %v force %v from %q", pos, force, replies)
		}
	})
}

// FuzzShoreWesternServer feeds arbitrary bytes to the controller as one
// connection. The line protocol is a trust boundary: whatever arrives, the
// server must not panic, must answer every non-blank line with exactly one
// reply line, in order, however the commands are pipelined, and must only
// say OK to a MOVE whose target is finite, within the stroke, and where the
// rig now is.
func FuzzShoreWesternServer(f *testing.F) {
	for _, seed := range []string{
		"MOVE NaN\n",
		"MOVE 1e400\n",
		"MOVE 0.01\nREAD\nSTOP\nMOVE 0.02\n",
		"MOVE 0.01\nREAD\nMOVE -Inf\nCLEAR\nmove -0.15\nREAD\nRESET\nPING",
		"\n \r\nMOVE\nMOVE 1 2\nMOVE 0x1p-4\nFROB 1\nREAD extra\n",
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(3))
	}
	f.Fuzz(func(t *testing.T, script []byte, chunk uint8) {
		if len(script) > 4096 {
			return // commands are tens of bytes; keep each input's moves cheap
		}
		cfg := quietActuator()
		rig := NewColumnRig("fuzz", cfg, 1000, 0, 0)
		conn := &scriptedConn{in: script, chunk: int(chunk)}
		NewShoreWesternServer(rig).serve(conn)

		var cmds []string
		for _, line := range strings.Split(string(script), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				cmds = append(cmds, line)
			}
		}
		out := conn.out.String()
		if len(cmds) == 0 {
			if out != "" {
				t.Fatalf("replies %q to no command", out)
			}
			return
		}
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("replies %q do not end a line", out)
		}
		replies := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(replies) != len(cmds) {
			t.Fatalf("%d commands, %d replies: %q", len(cmds), len(replies), replies)
		}
		if chunk == 0 && conn.writes > 1+len(out)/4096 {
			t.Fatalf("%d commands in one read answered in %d writes", len(cmds), conn.writes)
		}
		for i, cmd := range cmds {
			reply := replies[i]
			if !strings.HasPrefix(reply, "OK") && !strings.HasPrefix(reply, "ERR ") {
				t.Fatalf("%q answered %q", cmd, reply)
			}
			fields := strings.Fields(cmd)
			want := map[string]string{
				"PING": "OK pong", "STOP": "OK stopped", "RESET": "OK reset", "CLEAR": "OK cleared",
			}[strings.ToUpper(fields[0])]
			if want != "" && reply != want {
				t.Fatalf("reply %d to %q is %q, want %q: replies out of order", i, cmd, reply, want)
			}
			if strings.ToUpper(fields[0]) != "MOVE" || !strings.HasPrefix(reply, "OK") {
				continue
			}
			if len(fields) != 2 {
				t.Fatalf("%q answered %q", cmd, reply)
			}
			x, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > cfg.Stroke {
				t.Fatalf("%q answered %q", cmd, reply)
			}
			pos, err := strconv.ParseFloat(strings.TrimPrefix(reply, "OK "), 64)
			if err != nil || math.Abs(pos-x) > cfg.Tolerance {
				t.Fatalf("%q answered %q: the rig is not at the target", cmd, reply)
			}
		}
	})
}
