package gridftp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/telemetry"
)

func (c *Client) idleSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// openSessions counts the sessions the server holds: one per client
// connection it has accepted and not yet seen closed.
func (s *Server) openSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// waitUntil polls cond for up to two seconds, failing the test with what
// describe says if it never holds.
func waitUntil(t *testing.T, cond func() bool, describe func() string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(describe())
		}
	}
}

// awaitClose half-closes a peer's end of conn, discards what the client
// still sends, and counts the connection in closed once the client has
// closed its end.
func awaitClose(conn net.Conn, closed *atomic.Int64) {
	_ = conn.(*net.TCPConn).CloseWrite()
	_, _ = io.Copy(io.Discard, conn)
	_ = conn.Close()
	closed.Add(1)
}

// TestSessionsAreReused: a run of transfers through one Client opens as many
// connections as its widest transfer has streams, and the counters say so.
func TestSessionsAreReused(t *testing.T) {
	srv, cl, _ := fixture(t)
	reg := telemetry.NewRegistry()
	cl.UseTelemetry(reg)
	srv.UseTelemetry(reg)
	dials := reg.Counter("gridftp.client.dials")

	const streams, rounds = 2, 20
	src, data := writeTemp(t, DefaultBlockSize+1000, 20) // two blocks
	dst := filepath.Join(t.TempDir(), "dst.bin")
	for i := 0; i < rounds; i++ {
		remote := fmt.Sprintf("reuse/%d.bin", i)
		if err := cl.Put(src, remote, streams); err != nil {
			t.Fatal(err)
		}
		if err := cl.Get(remote, dst, streams); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, data) {
		t.Fatal("downloaded bytes differ")
	}
	if n := dials.Value(); n > streams {
		t.Fatalf("%d transfers dialed %d connections, want at most %d", 2*rounds, n, streams)
	}
	n := dials.Value()

	cl.Close()
	if n := cl.idleSessions(); n != 0 {
		t.Fatalf("%d idle sessions after Close", n)
	}
	waitUntil(t, func() bool { return srv.openSessions() == 0 },
		func() string { return fmt.Sprintf("Close left %d of %d connections open", srv.openSessions(), n) })
	if _, _, err := cl.Stat("reuse/0.bin"); err != nil {
		t.Fatalf("client unusable after Close: %v", err)
	}

	_ = srv.Close()                // every handler has returned, so has counted what it sent
	const exchanges = rounds*7 + 1 // put-init, 2 put-data, put-commit, stat, 2 get-data; the last stat
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"gridftp.client.dials":               n + 1, // the stat after Close
		"gridftp.client.reuses":              exchanges - n - 1,
		"gridftp.client.stale_retries":       0,
		"gridftp.server.sessions":            n + 1,
		"gridftp.server.requests.put-init":   rounds,
		"gridftp.server.requests.put-data":   rounds * streams,
		"gridftp.server.requests.put-commit": rounds,
		"gridftp.server.requests.stat":       rounds + 1,
		"gridftp.server.requests.get-data":   rounds * streams,
		"gridftp.server.requests.unknown":    0,
		"gridftp.server.bytes_in":            rounds * int64(len(data)),
		"gridftp.server.bytes_out":           rounds * int64(len(data)),
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if g, ok := snap.Gauges["gridftp.server.uploads_open"]; !ok || g != 0 {
		t.Errorf("uploads_open = %v (present %v) after every upload committed", g, ok)
	}
}

// TestServerRestartAbsorbed: a session that died while idle costs one dial
// and no error.
func TestServerRestartAbsorbed(t *testing.T) {
	root := t.TempDir()
	start := func(addr string) (*Server, string) {
		t.Helper()
		srv, err := NewServer(root)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := srv.Start(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv, bound
	}
	srv, addr := start("127.0.0.1:0")
	reg := telemetry.NewRegistry()
	cl := &Client{Addr: addr}
	cl.UseTelemetry(reg)
	dials := reg.Counter("gridftp.client.dials")
	src, data := writeTemp(t, 3000, 21)
	if err := cl.Put(src, "a.bin", 1); err != nil {
		t.Fatal(err)
	}
	if dials.Value() != 1 || cl.idleSessions() != 1 {
		t.Fatalf("before the restart: %d dials, %d idle", dials.Value(), cl.idleSessions())
	}

	_ = srv.Close()
	start(addr)
	if err := cl.Put(src, "b.bin", 1); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	if n := dials.Value(); n != 2 {
		t.Fatalf("%d dials, want the first and one for the stale session", n)
	}
	if n := reg.Counter("gridftp.client.stale_retries").Value(); n != 1 {
		t.Fatalf("stale_retries = %d, want 1", n)
	}
	if got, _ := os.ReadFile(filepath.Join(root, "b.bin")); !bytes.Equal(got, data) {
		t.Fatal("file uploaded after the restart is corrupt")
	}
}

// TestNoRetryOnFreshOrAnsweredSession: only a reused session that has
// answered nothing is retried.
func TestNoRetryOnFreshOrAnsweredSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A peer that answers the first request of a connection, then half an
	// answer to the second, then hangs up; and hangs up on later connections
	// at once. It counts the connections the client then closes.
	var closed atomic.Int64
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				br := bufio.NewReader(conn)
				_, _ = br.ReadString('\n')
				_, _ = io.WriteString(conn, `{"ok":true,"size":1}`+"\n")
				_, _ = br.ReadString('\n')
				_, _ = io.WriteString(conn, `{"ok":tr`)
			}
			go awaitClose(conn, &closed)
		}
	}()
	reg := telemetry.NewRegistry()
	cl := &Client{Addr: ln.Addr().String()}
	cl.UseTelemetry(reg)
	dials := reg.Counter("gridftp.client.dials")
	if _, _, err := cl.Stat("x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Stat("x"); err == nil {
		t.Fatal("half an answer accepted")
	}
	if n := dials.Value(); n != 1 {
		t.Fatalf("a session that had begun to answer was retried (%d dials)", n)
	}
	if _, _, err := cl.Stat("x"); err == nil {
		t.Fatal("hang-up accepted")
	}
	if n := dials.Value(); n != 2 {
		t.Fatalf("a fresh connection was retried (%d dials)", n)
	}
	waitUntil(t, func() bool { return closed.Load() == 2 && cl.idleSessions() == 0 },
		func() string {
			return fmt.Sprintf("failed sessions kept: %d closed, %d idle", closed.Load(), cl.idleSessions())
		})
}

// TestKilledStripeClosesItsSession: a stripe that dies mid-transfer leaves a
// half-sent stream behind, so its connection is closed, never reused; Resume
// finishes on the others.
func TestKilledStripeClosesItsSession(t *testing.T) {
	srv, cl, root := fixture(t)
	reg := telemetry.NewRegistry()
	cl.UseTelemetry(reg)
	dials := reg.Counter("gridftp.client.dials")
	cl.BlockSize = 4 << 10
	src, data := writeTemp(t, 64<<10, 22) // 16 blocks, 8 per stripe
	const id = "killed-stripe"
	err := cl.PutWithID(src, "k.bin", id, 2, func(block int) error {
		if block == 5 { // stripe 1, after blocks 1 and 3
			return fmt.Errorf("injected stream failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("interrupted upload should fail")
	}
	// Two sessions when the stripes overlapped, one when stripe 1 started
	// after stripe 0 had finished; the killed stripe's is closed either way,
	// so the server holds exactly the client's idle ones.
	if n, idle := dials.Value(), int64(cl.idleSessions()); idle != n-1 {
		t.Fatalf("after the kill: %d dials, %d idle; want the killed stripe's session dropped and the rest idle", n, idle)
	}
	waitUntil(t, func() bool { return srv.openSessions() == cl.idleSessions() },
		func() string {
			return fmt.Sprintf("server holds %d sessions, the client %d idle: the killed stripe's was not closed", srv.openSessions(), cl.idleSessions())
		})
	if err := cl.Resume(src, "k.bin", id, 2); err != nil {
		t.Fatal(err)
	}
	if n := dials.Value(); n > 3 {
		t.Fatalf("%d connections dialed in all, want at most 3: the survivor reused, one to replace the killed", n)
	}
	if got, _ := os.ReadFile(filepath.Join(root, "k.bin")); !bytes.Equal(got, data) {
		t.Fatal("resumed file corrupt")
	}
}

// oneShot does what the client did before sessions existed: dial, one
// header, read the reply line, and leave the connection to the caller.
func oneShot(t *testing.T, addr string, req request) (net.Conn, *bufio.Reader, response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	b, _ := json.Marshal(req)
	if _, err := conn.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	return conn, br, readReply(t, br)
}

func readReply(t *testing.T, br *bufio.Reader) response {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reply: %v", err)
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("reply %q: %v", line, err)
	}
	return resp
}

// TestOneShotPeerStillServed: a peer that opens a connection per request is
// a session of one request each.
func TestOneShotPeerStillServed(t *testing.T) {
	_, cl, root := fixture(t)
	data := bytes.Repeat([]byte("neesgrid"), 100)
	const id = "one-shot"

	conn, _, resp := oneShot(t, cl.Addr, request{Op: "put-init", ID: id, Path: "o.bin", Size: int64(len(data)), Block: 512, Streams: 1})
	if !resp.OK {
		t.Fatalf("put-init: %+v", resp)
	}
	_ = conn.Close()

	conn, br, resp := oneShot(t, cl.Addr, request{Op: "put-data", ID: id})
	if !resp.OK {
		t.Fatalf("put-data: %+v", resp)
	}
	for off := 0; off < len(data); off += 512 {
		n := min(512, len(data)-off)
		_ = writeBlockHeader(conn, blockHeader{Offset: int64(off), Length: int32(n)})
		_, _ = conn.Write(data[off : off+n])
	}
	_ = writeBlockHeader(conn, blockHeader{})
	if ack := readReply(t, br); !ack.OK {
		t.Fatalf("stripe ack: %+v", ack)
	}
	_ = conn.Close()

	conn, _, resp = oneShot(t, cl.Addr, request{Op: "put-commit", ID: id, CRC: crc32.ChecksumIEEE(data)})
	if !resp.OK || resp.Size != int64(len(data)) {
		t.Fatalf("put-commit: %+v", resp)
	}
	_ = conn.Close()
	if got, _ := os.ReadFile(filepath.Join(root, "o.bin")); !bytes.Equal(got, data) {
		t.Fatal("stored bytes differ")
	}

	conn, br, resp = oneShot(t, cl.Addr, request{Op: "get-data", Path: "o.bin", Offset: 8, Length: 16})
	if !resp.OK || resp.Size != 16 {
		t.Fatalf("get-data: %+v", resp)
	}
	got := make([]byte, 16)
	if _, err := io.ReadFull(br, got); err != nil || !bytes.Equal(got, data[8:24]) {
		t.Fatalf("range = %q, %v", got, err)
	}
	_ = conn.Close()
}

// TestCloseCutsSessions: Close returns promptly although clients hold idle
// sessions and a stripe is mid-block, leaves no handler goroutine, and closes
// the .part file of the unfinished upload.
func TestCloseCutsSessions(t *testing.T) {
	srv, cl, root := fixture(t)
	src, _ := writeTemp(t, 1000, 23)
	if err := cl.Put(src, "done.bin", 2); err != nil {
		t.Fatal(err)
	}
	if cl.idleSessions() == 0 {
		t.Fatal("no idle session to cut")
	}
	// An upload left open, with one stripe stopped in the middle of a block.
	sess, _, err := cl.roundTrip(&request{Op: "put-init", ID: "open", Path: "open.bin", Size: 4096, Block: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cl.release(sess)
	sess, _, err = cl.roundTrip(&request{Op: "put-data", ID: "open"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_ = writeBlockHeader(sess, blockHeader{Offset: 0, Length: 1024})
	_, _ = sess.Write(make([]byte, 100))
	if !hasOpenFile(t, filepath.Join(root, "open.bin.part")) {
		t.Skip("cannot see this process's descriptors")
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	// Close has waited for every handler's last statement; allow the
	// goroutines the moment it takes them to leave the scheduler's list.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var stacks bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		if !strings.Contains(stacks.String(), "gridftp.(*Server).") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a server goroutine outlived Close:\n%s", stacks.String())
		}
	}
	if hasOpenFile(t, filepath.Join(root, "open.bin.part")) {
		t.Error("the unfinished upload's .part file is still open")
	}
	if _, err := os.Stat(filepath.Join(root, "open.bin.part")); err != nil {
		t.Errorf("the .part file should stay on disk: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("a closed server started again")
	}
}

// hasOpenFile reports whether this process holds a descriptor on path.
func hasOpenFile(t *testing.T, path string) bool {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return false
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			return true
		}
	}
	return false
}

// TestPutInitRefusesMismatchedReinit: a transfer id names one upload. A
// second init with another path, size or block used to join the first
// upload's file silently.
func TestPutInitRefusesMismatchedReinit(t *testing.T) {
	_, cl, _ := fixture(t)
	first := request{Op: "put-init", ID: "shared", Path: "a.bin", Size: 2048, Block: 1024}
	for _, tc := range []struct {
		name   string
		mutate func(*request)
		ok     bool
	}{
		{"first", func(*request) {}, true},
		{"same again (a resume)", func(*request) {}, true},
		{"same path spelled differently", func(r *request) { r.Path = "/x/../a.bin" }, true},
		{"other path", func(r *request) { r.Path = "b.bin" }, false},
		{"other size", func(r *request) { r.Size = 4096 }, false},
		{"other block", func(r *request) { r.Block = 512 }, false},
	} {
		req := first
		tc.mutate(&req)
		sess, _, err := cl.roundTrip(&req)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
		if err == nil {
			cl.release(sess)
		}
	}
}

// TestPutInitBoundsBlock: the server allocates one block per data stream, so
// an absurd block size must be refused at init. It used to be accepted, and
// the put-data that followed took the process down with an out-of-memory
// fatal error.
func TestPutInitBoundsBlock(t *testing.T) {
	_, cl, _ := fixture(t)
	for _, block := range []int{maxBlockSize + 1, math.MaxInt} {
		_, _, err := cl.roundTrip(&request{Op: "put-init", ID: "huge", Path: "h.bin", Size: 10, Block: block})
		if err == nil || !strings.Contains(err.Error(), "block") {
			t.Fatalf("block %d: %v", block, err)
		}
		if _, _, err := cl.roundTrip(&request{Op: "put-data", ID: "huge"}); err == nil {
			t.Fatal("the refused init left an upload behind")
		}
	}
	sess, _, err := cl.roundTrip(&request{Op: "put-init", ID: "largest", Path: "l.bin", Size: 10, Block: maxBlockSize})
	if err != nil {
		t.Fatalf("block at the limit: %v", err)
	}
	cl.release(sess)
}

// TestGetDataLengthOverflow: offset+length used to overflow, and the server
// promised 2^63-1 bytes of a 100-byte file. The range is clamped to the file,
// and the session carries the next request.
func TestGetDataLengthOverflow(t *testing.T) {
	_, cl, _ := fixture(t)
	src, data := writeTemp(t, 100, 24)
	if err := cl.Put(src, "r.bin", 1); err != nil {
		t.Fatal(err)
	}
	sess, resp, err := cl.roundTrip(&request{Op: "get-data", Path: "r.bin", Offset: 5, Length: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if resp.Size != 95 {
		t.Fatalf("promised %d bytes, want 95", resp.Size)
	}
	got := make([]byte, 95)
	if _, err := io.ReadFull(sess, got); err != nil || !bytes.Equal(got, data[5:]) {
		t.Fatalf("range differs: %v", err)
	}
	if err := sendJSON(sess, &request{Op: "stat", Path: "r.bin"}); err != nil {
		t.Fatal(err)
	}
	var next response
	if err := recvJSON(sess, &next); err != nil || !next.OK || next.Size != 100 {
		t.Fatalf("request after the range: %+v, %v", next, err)
	}
	for _, off := range []int64{-1, 101, math.MaxInt64, math.MinInt64} {
		if _, _, err := cl.roundTrip(&request{Op: "get-data", Path: "r.bin", Offset: off, Length: math.MaxInt64}); err == nil {
			t.Fatalf("offset %d accepted", off)
		}
	}
}

// TestShortRangeClosesServerSession: when the file shrinks under a get-data,
// the server has promised more than it can send. It must hang up rather than
// wait for the next header on a stream its peer still reads as data.
func TestShortRangeClosesServerSession(t *testing.T) {
	_, cl, root := fixture(t)
	// Sparse and larger than the loopback socket buffers, so the copy is
	// still running when the file shrinks.
	const size = 64 << 20
	path := filepath.Join(root, "big.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
	conn, br, resp := oneShot(t, cl.Addr, request{Op: "get-data", Path: "big.bin"})
	if !resp.OK || resp.Size != size {
		t.Fatalf("get-data: %+v", resp)
	}
	if err := os.Truncate(path, 1<<10); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, br)
	if err != nil {
		t.Fatalf("the server kept the session open after %d of %d bytes: %v", n, size, err)
	}
	if n >= size {
		t.Fatalf("read %d bytes: the copy finished before the file shrank", n)
	}
}

// TestShortRangeClosesClientSession: a range that ends before its promised
// size fails the download and its session is not kept.
func TestShortRangeClosesClientSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var closed atomic.Int64
	go func() { // promises 100 bytes, sends 40
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = bufio.NewReader(conn).ReadString('\n')
			_, _ = io.WriteString(conn, `{"ok":true,"size":100}`+"\n"+strings.Repeat("x", 40))
			go awaitClose(conn, &closed)
		}
	}()
	cl := &Client{Addr: ln.Addr().String()}
	f, err := os.Create(filepath.Join(t.TempDir(), "short.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := cl.getRange("x", f, 0, 100); err == nil {
		t.Fatal("short range accepted")
	}
	waitUntil(t, func() bool { return closed.Load() == 1 && cl.idleSessions() == 0 },
		func() string {
			return fmt.Sprintf("short session kept: %d closed, %d idle", closed.Load(), cl.idleSessions())
		})
}

// TestTransferIDsAreDistinct: ids differ between transfers of one client and
// between clients of one process.
func TestTransferIDsAreDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for c := 0; c < 3; c++ {
		cl := &Client{}
		for i := 0; i < 3; i++ {
			id, err := cl.newTransferID()
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("transfer id %q repeated", id)
			}
			seen[id] = true
		}
	}
}

// TestPutInitRefusesTheRoot: an upload's .part file is its target's sibling,
// so a path that names the root itself would put one beside the root
// (FuzzServerSession found it).
func TestPutInitRefusesTheRoot(t *testing.T) {
	_, cl, root := fixture(t)
	for _, p := range []string{".", "/", "a/..", "../", "//./"} {
		if _, _, err := cl.roundTrip(&request{Op: "put-init", ID: "root-" + p, Path: p, Size: 4}); err == nil {
			t.Errorf("put-init to %q accepted", p)
		}
	}
	if _, err := os.Stat(root + ".part"); err == nil {
		t.Fatal("a .part file appeared beside the root")
	}
}

// TestFailedUploadLeavesWholeMarker: when an upload fails for a reason of the
// client's own, every block it had sent is on the restart marker by the time
// the call returns: no polling, and a Resume right behind resends none.
func TestFailedUploadLeavesWholeMarker(t *testing.T) {
	_, cl, _ := fixture(t)
	cl.BlockSize = 1 << 10
	src, _ := writeTemp(t, 32<<10, 25) // 32 blocks
	sent := 0
	err := cl.PutWithID(src, "m.bin", "marker", 1, func(int) error {
		if sent == 20 {
			return fmt.Errorf("injected stream failure")
		}
		sent++
		return nil
	})
	if err == nil {
		t.Fatal("interrupted upload should fail")
	}
	received, err := cl.Status("marker")
	if err != nil || len(received) != sent {
		t.Fatalf("restart marker has %d blocks right after %d were sent (%v)", len(received), sent, err)
	}
}

// Close drops the idle sessions. It is optional (the server reaps a session
// idle past its deadline) and leaves the client usable.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, sess := range idle {
		_ = sess.Close()
	}
}
