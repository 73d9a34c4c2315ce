package gridftp

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSessionOwnsTheTransferBuffer: Put and Get rounds over one session move
// their blocks through the buffer the session made for its first transfer.
// Each round used to make five (stripe, server block, range, two checksum
// passes): 288 KiB at one stream.
func TestSessionOwnsTheTransferBuffer(t *testing.T) {
	_, cl, root := fixture(t)
	src, _ := writeTemp(t, 100_000, 11) // two blocks
	dst := filepath.Join(t.TempDir(), "back.bin")
	round := func() {
		if err := cl.Put(src, "run.bin", 1); err != nil {
			t.Fatal(err)
		}
		if err := cl.Get("run.bin", dst, 1); err != nil {
			t.Fatal(err)
		}
		// The next Put starts from an empty store, like the first.
		if err := os.Remove(filepath.Join(root, "run.bin")); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if n := cl.idleSessions(); n != 1 {
		t.Fatalf("%d idle sessions after a one-stream round, want 1", n)
	}
	scratch := &cl.idle()[0].scratch[0]

	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := cl.idleSessions(); n != 1 || &cl.idle()[0].scratch[0] != scratch {
		t.Fatalf("the session (%d idle) changed its buffer between rounds", n)
	}
	// What is left per round, both ends of the connection counted: the two
	// 32 KiB buffers io.Copy makes for the client's CRC passes over the local
	// files, and the small change of headers and file handles. One 64 KiB
	// transfer buffer more does not fit under the ceiling.
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if perRound > 2*(32<<10)+(48<<10) {
		t.Fatalf("a Put+Get round allocates %d bytes, want no transfer buffer among them (at most %d)", perRound, 2*(32<<10)+(48<<10))
	}
	allocs := testing.AllocsPerRun(rounds, round)
	if allocs > 400 {
		t.Fatalf("a Put+Get round costs %.0f allocations, want at most 400", allocs)
	}
	t.Logf("a Put+Get round: %d bytes, %.0f allocations", perRound, allocs)
}

// TestLargeBlocksAreNotKept: a transfer with blocks above DefaultBlockSize
// gets its buffers for the exchange only, so what a session holds while idle
// is bounded whatever a put-init asked for.
func TestLargeBlocksAreNotKept(t *testing.T) {
	_, cl, _ := fixture(t)
	cl.BlockSize = 1 << 20
	src, _ := writeTemp(t, 3<<20, 12)
	if err := cl.Put(src, "big.bin", 2); err != nil {
		t.Fatal(err)
	}
	if err := cl.Get("big.bin", filepath.Join(t.TempDir(), "back.bin"), 2); err != nil {
		t.Fatal(err)
	}
	if cl.idleSessions() == 0 {
		t.Fatal("no idle session to look at")
	}
	for _, sess := range cl.idle() {
		if cap(sess.scratch) > DefaultBlockSize {
			t.Fatalf("an idle client session holds %d bytes, want at most %d", cap(sess.scratch), DefaultBlockSize)
		}
	}
	// The server's sessions are the same type; seen from inside one:
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sess := newSession(a)
	if sess.scratch != nil {
		t.Fatal("a session that has moved nothing holds a buffer")
	}
	if big := sess.buffer(maxBlockSize); len(big) != maxBlockSize || sess.scratch != nil {
		t.Fatalf("a %d-byte buffer: %d bytes handed out, %d kept", maxBlockSize, len(big), cap(sess.scratch))
	}
	small := sess.buffer(1024)
	if again := sess.buffer(DefaultBlockSize); len(small) != 1024 || &again[0] != &small[0] || cap(sess.scratch) != DefaultBlockSize {
		t.Fatalf("buffers up to the default block are not one kept buffer (%d kept)", cap(sess.scratch))
	}
}

// BenchmarkPutStreams measures Put at 1, 2 and 4 streams on loopback with the
// order taken out: every iteration of every setting puts once at each of the
// three settings in turn and times only its own, and each file is removed
// after its put, so no setting runs against a store the others have filled.
func BenchmarkPutStreams(b *testing.B) {
	const size = 16 << 20
	settings := []int{1, 2, 4}
	for _, streams := range settings {
		b.Run(fmt.Sprint(streams), func(b *testing.B) {
			root := b.TempDir()
			srv, err := NewServer(root)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			cl := &Client{Addr: addr}
			defer cl.Close()
			src := filepath.Join(b.TempDir(), "src.bin")
			if err := os.WriteFile(src, make([]byte, size), 0o644); err != nil {
				b.Fatal(err)
			}
			put := func(n int) {
				if err := cl.Put(src, "bulk.bin", n); err != nil {
					b.Fatal(err)
				}
				if err := os.Remove(filepath.Join(root, "bulk.bin")); err != nil {
					b.Fatal(err)
				}
			}
			put(4) // opens the sessions every setting then reuses
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, n := range settings {
					if n != streams {
						b.StopTimer()
					}
					put(n)
					b.StartTimer()
				}
			}
		})
	}
}
