package gridftp

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The fuzz fabric: the server's root sits three directories deep in the
// test's temp dir, with a sentinel file beside it that no request may reach
// and one file inside it that every request may.
const (
	fuzzRoot     = "l1/l2/l3/root"
	fuzzSentinel = "l1/l2/l3/sentinel.bin"
	fuzzInside   = "in.bin"
)

var (
	fuzzSecret = []byte("SENTINEL-BESIDE-THE-ROOT: no reply may carry these bytes, nor their checksum")
	fuzzData   = bytes.Repeat([]byte("0123456789abcdef"), 8) // in.bin, 128 bytes
)

func header(req request) []byte {
	b, _ := json.Marshal(req)
	return append(b, '\n')
}

func frame(off int64, data []byte) []byte {
	var b bytes.Buffer
	_ = writeBlockHeader(&b, blockHeader{Offset: off, Length: int32(len(data))})
	b.Write(data)
	return b.Bytes()
}

func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// sessionSeeds is every valid exchange, alone and strung into one session,
// the inputs of the bugs this target would have found, and the framing's
// edges.
func sessionSeeds() [][]byte {
	up := bytes.Repeat([]byte("neesgrid"), 125) // 1000 bytes: blocks of 512 and 488
	upload := join(
		header(request{Op: "put-init", ID: "a", Path: "up.bin", Size: 1000, Block: 512, Streams: 1}),
		header(request{Op: "put-data", ID: "a"}),
		frame(0, up[:512]), frame(512, up[512:]), frame(0, nil),
		header(request{Op: "put-status", ID: "a"}),
		header(request{Op: "put-commit", ID: "a", CRC: crc32.ChecksumIEEE(up)}),
	)
	return [][]byte{
		// One-shot exchanges, as a peer from before sessions sends them.
		header(request{Op: "stat", Path: fuzzInside}),
		header(request{Op: "get-data", Path: fuzzInside, Offset: 8, Length: 16}),
		header(request{Op: "put-init", ID: "a", Path: "up.bin", Size: 1000, Block: 512}),
		// Third-party transfer, which the server no longer has: an unknown op.
		[]byte(`{"op":"fxp","path":"in.bin","dst_addr":"127.0.0.1:1","dst_path":"x.bin"}` + "\n"),
		// A whole upload, then reads, an unknown op and a refusal, in one session.
		join(upload,
			header(request{Op: "stat", Path: "up.bin"}),
			header(request{Op: "get-data", Path: "up.bin"}),
			header(request{Op: "get-data", Path: "up.bin", Offset: 999}),
			header(request{Op: "frob"}),
			header(request{Op: "stat", Path: "missing.bin"}),
		),
		// Bug: a second put-init under one id joined the first one's file.
		join(
			header(request{Op: "put-init", ID: "put-1-1", Path: "a.bin", Size: 1000, Block: 512}),
			header(request{Op: "put-init", ID: "put-1-1", Path: "b.bin", Size: 64, Block: 64}),
			header(request{Op: "put-data", ID: "put-1-1"}),
			frame(0, up[:64]), frame(0, nil),
			header(request{Op: "put-commit", ID: "put-1-1", CRC: crc32.ChecksumIEEE(up[:64])}),
		),
		// Bug: put-data allocated whatever block put-init had named (32 TiB).
		join(
			header(request{Op: "put-init", ID: "huge", Path: "h.bin", Size: 10, Block: math.MaxInt >> 18}),
			header(request{Op: "put-data", ID: "huge"}),
			frame(0, up[:10]), frame(0, nil),
		),
		// Bug: offset+length overflowed in get-data.
		join(
			header(request{Op: "get-data", Path: fuzzInside, Offset: 5, Length: math.MaxInt64}),
			header(request{Op: "get-data", Path: fuzzInside, Offset: math.MaxInt64, Length: math.MaxInt64}),
			header(request{Op: "get-data", Path: fuzzInside, Offset: -1}),
		),
		// A header longer than the reader's buffer, and a request after it.
		join(
			header(request{Op: "stat", Path: strings.Repeat("d/", readerSize) + fuzzInside}),
			header(request{Op: "stat", Path: fuzzInside}),
		),
		// A stripe that stops mid-block.
		join(
			header(request{Op: "put-init", ID: "a", Path: "up.bin", Size: 1000, Block: 512}),
			header(request{Op: "put-data", ID: "a"}),
			frame(0, up[:512]), frame(512, up[512:])[:100],
		),
		// A frame outside its file, and what follows it read as a header.
		join(
			header(request{Op: "put-init", ID: "a", Path: "up.bin", Size: 1000, Block: 512}),
			header(request{Op: "put-data", ID: "a"}),
			frame(math.MaxInt64-100, up[:512]),
			header(request{Op: "stat", Path: fuzzInside}),
		),
		// Paths that climb, on every op that takes one.
		join(
			header(request{Op: "stat", Path: "../sentinel.bin"}),
			header(request{Op: "get-data", Path: "../../../../" + fuzzSentinel}),
			header(request{Op: "put-init", ID: "e", Path: "../evil.bin", Size: 4, Block: 4}),
			header(request{Op: "put-data", ID: "e"}),
			frame(0, []byte("evil")), frame(0, nil),
			header(request{Op: "put-commit", ID: "e", CRC: crc32.ChecksumIEEE([]byte("evil"))}),
			[]byte(`{"op":"fxp","path":"../sentinel.bin","dst_addr":"127.0.0.1:1","dst_path":"../../x"}`+"\n"),
		),
		// Not requests at all.
		[]byte("null\n{}\n\n[1]\nGET / HTTP/1.1\r\n\r\n"),
	}
}

// FuzzServerSession feeds arbitrary bytes to a server as one session on its
// unauthenticated port. Whatever they are: the process survives; the session
// ends once its input has, within a deadline; every reply is a JSON line, a
// get-data reply followed by as many bytes as it promises or by the end of
// the stream; nothing outside the root is created, changed, or read back;
// and no request makes the process claim memory out of proportion.
func FuzzServerSession(f *testing.F) {
	for _, seed := range sessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		root := filepath.Join(dir, fuzzRoot)
		srv, err := NewServer(root)
		if err != nil {
			t.Fatal(err)
		}
		for name, content := range map[string][]byte{
			filepath.Join(dir, fuzzSentinel): fuzzSecret,
			filepath.Join(root, fuzzInside):  fuzzData,
		} {
			if err := os.WriteFile(name, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		out, timedOut := runSession(t, addr, in)
		_ = srv.Close()
		// The one request whose work the input's length does not bound is a
		// checksum over a file as large as a put-init declared (sparse, so
		// free to declare). That is the protocol as designed, not a hang.
		if timedOut && largestFile(t, root) <= 64<<20 {
			t.Errorf("the session neither answered nor ended within the deadline (%d bytes read)", len(out))
		}

		runtime.ReadMemStats(&after)
		if grown := int64(after.Sys) - int64(before.Sys); grown > 64<<20 {
			t.Errorf("the session made the process claim %d MiB", grown>>20)
		}
		checkReplies(t, out)
		checkOutsideRoot(t, dir)
	})
}

// sessionOutputCap bounds what the harness reads back: a session may fairly
// ask for a sparse terabyte, and the first megabyte says all the oracle asks.
const sessionOutputCap = 1 << 20

// runSession writes in as one session, half-closes, and returns what the
// server sent until it hung up (or the cap), and whether the deadline cut
// the wait short.
func runSession(t *testing.T, addr string, in []byte) (out []byte, timedOut bool) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	written := make(chan struct{})
	go func() {
		defer close(written)
		_, _ = conn.Write(in) // fails once the server has hung up: its right
		_ = conn.(*net.TCPConn).CloseWrite()
	}()
	out, err = io.ReadAll(io.LimitReader(conn, sessionOutputCap))
	_ = conn.Close()
	<-written
	// A hang-up with input still unread arrives as a reset: an end all the
	// same. Only silence is not.
	return out, errors.Is(err, os.ErrDeadlineExceeded)
}

func largestFile(t *testing.T, root string) (size int64) {
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if info, ierr := d.Info(); err == nil && ierr == nil && !d.IsDir() {
			size = max(size, info.Size())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return size
}

// checkReplies walks the server's output: JSON lines, each get-data reply
// followed by its range.
func checkReplies(t *testing.T, out []byte) {
	if bytes.Contains(out, fuzzSecret) {
		t.Error("the sentinel's bytes were sent")
	}
	for len(out) > 0 {
		line, rest, whole := bytes.Cut(out, []byte("\n"))
		if !whole {
			return // cut by the hang-up or the cap
		}
		var resp response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("reply %q is not a JSON line: %v", line, err)
		}
		if resp.Size == int64(len(fuzzSecret)) && resp.CRC == crc32.ChecksumIEEE(fuzzSecret) {
			t.Error("the sentinel's size and checksum were reported")
		}
		out = rest
		// Only get-data answers with a size and nothing else (a non-empty
		// file's checksum is zero once in 2^32).
		if resp.OK && resp.Size > 0 && resp.CRC == 0 && resp.Received == nil {
			if int64(len(out)) < resp.Size {
				return
			}
			out = out[resp.Size:]
		}
	}
}

// checkOutsideRoot compares everything in dir that is not under the root
// with what the fabric put there.
func checkOutsideRoot(t *testing.T, dir string) {
	want := map[string]bool{".": true, "l1": true, "l1/l2": true, "l1/l2/l3": true, fuzzRoot: true, fuzzSentinel: true}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if !want[filepath.ToSlash(rel)] {
			t.Errorf("%s appeared outside the root", rel)
		}
		if filepath.ToSlash(rel) == fuzzRoot {
			return fs.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, fuzzSentinel)); err != nil || !bytes.Equal(got, fuzzSecret) {
		t.Errorf("the sentinel changed: %v", err)
	}
}
