package gridftp

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fixture starts a server over a temp root and returns (server, client,
// root).
func fixture(t *testing.T) (*Server, *Client, string) {
	t.Helper()
	root := t.TempDir()
	srv, err := NewServer(root)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, &Client{Addr: addr}, root
}

func writeTemp(t *testing.T, size int, seed int64) (string, []byte) {
	t.Helper()
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	path := filepath.Join(t.TempDir(), "src.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestPutGetRoundTrip(t *testing.T) {
	_, cl, root := fixture(t)
	src, data := writeTemp(t, 300_000, 1) // ~5 blocks at 64 KiB
	if err := cl.Put(src, "exp/most/run1.bin", 3); err != nil {
		t.Fatal(err)
	}
	// Stored bytes match.
	stored, err := os.ReadFile(filepath.Join(root, "exp/most/run1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, data) {
		t.Fatal("stored bytes differ")
	}
	// Download with parallel streams.
	dst := filepath.Join(t.TempDir(), "dst.bin")
	if err := cl.Get("exp/most/run1.bin", dst, 4); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("downloaded bytes differ")
	}
}

func TestPutSmallAndEmptyFiles(t *testing.T) {
	_, cl, root := fixture(t)
	src, data := writeTemp(t, 10, 2)
	if err := cl.Put(src, "tiny.bin", 4); err != nil { // more streams than blocks
		t.Fatal(err)
	}
	stored, _ := os.ReadFile(filepath.Join(root, "tiny.bin"))
	if !bytes.Equal(stored, data) {
		t.Fatal("tiny file corrupt")
	}

	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(empty, "empty.bin", 2); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(root, "empty.bin"))
	if err != nil || info.Size() != 0 {
		t.Fatalf("empty file: %v, %v", info, err)
	}
}

func TestStat(t *testing.T) {
	_, cl, _ := fixture(t)
	src, data := writeTemp(t, 1000, 3)
	if err := cl.Put(src, "f.bin", 1); err != nil {
		t.Fatal(err)
	}
	size, crc, err := cl.Stat("f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1000 || crc != crc32.ChecksumIEEE(data) {
		t.Fatalf("stat = %d, %08x", size, crc)
	}
	if _, _, err := cl.Stat("missing.bin"); err == nil {
		t.Fatal("stat of missing file should fail")
	}
}

func TestResumeAfterInterruptedUpload(t *testing.T) {
	_, cl, root := fixture(t)
	cl.BlockSize = 4 << 10
	src, data := writeTemp(t, 64<<10, 4) // 16 blocks of 4 KiB
	const id = "resume-test"

	// First attempt dies after 5 blocks.
	sent := 0
	err := cl.PutWithID(src, "big.bin", id, 1, func(block int) error {
		if sent >= 5 {
			return fmt.Errorf("injected stream failure")
		}
		sent++
		return nil
	})
	if err == nil {
		t.Fatal("interrupted upload should fail")
	}
	// The aborted stream drains asynchronously on the server; poll the
	// restart marker until the received blocks appear.
	var received []int
	deadline := time.Now().Add(2 * time.Second)
	for {
		received, err = cl.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(received) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(received) == 0 || len(received) >= 16 {
		t.Fatalf("restart marker has %d blocks", len(received))
	}

	// Resume: only missing blocks travel.
	resent := 0
	err = cl.PutWithID(src, "big.bin", id, 2, func(block int) error {
		resent++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if resent+len(received) != 16 {
		t.Fatalf("resume sent %d blocks with %d already present (want total 16)", resent, len(received))
	}
	stored, _ := os.ReadFile(filepath.Join(root, "big.bin"))
	if !bytes.Equal(stored, data) {
		t.Fatal("resumed file corrupt")
	}
}

func TestCommitRejectsIncompleteUpload(t *testing.T) {
	_, cl, root := fixture(t)
	cl.BlockSize = 4 << 10
	src, _ := writeTemp(t, 32<<10, 5)
	const id = "incomplete"
	sent := 0
	err := cl.PutWithID(src, "x.bin", id, 1, func(int) error {
		if sent >= 2 {
			return fmt.Errorf("die")
		}
		sent++
		return nil
	})
	if err == nil {
		t.Fatal("expected stream failure")
	}
	// Commit via a fresh client call must be refused (missing blocks).
	conn, _, err := cl.roundTrip(&request{Op: "put-init", ID: id, Path: "x.bin", Size: 32 << 10, Block: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	conn2, err2 := cl.dial()
	if err2 != nil {
		t.Fatal(err2)
	}
	defer conn2.Close()
	_ = sendJSON(conn2, &request{Op: "put-commit", ID: id, CRC: 0})
	var resp response
	if err := recvJSON(conn2, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("incomplete commit accepted")
	}
	// No final file appeared.
	if _, err := os.Stat(filepath.Join(root, "x.bin")); err == nil {
		t.Fatal("partial upload became visible")
	}
}

func TestCommitRejectsBadCRC(t *testing.T) {
	_, cl, _ := fixture(t)
	src, _ := writeTemp(t, 1000, 6)
	const id = "badcrc"
	// Upload all blocks manually, then commit with a wrong CRC.
	f, _ := os.Open(src)
	defer f.Close()
	conn, _, err := cl.roundTrip(&request{Op: "put-init", ID: id, Path: "y.bin", Size: 1000, Block: 512})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	data, _ := os.ReadFile(src)
	dataConn, _, err := cl.roundTrip(&request{Op: "put-data", ID: id})
	if err != nil {
		t.Fatal(err)
	}
	_ = writeBlockHeader(dataConn, blockHeader{Offset: 0, Length: 512})
	_, _ = dataConn.Write(data[:512])
	_ = writeBlockHeader(dataConn, blockHeader{Offset: 512, Length: 488})
	_, _ = dataConn.Write(data[512:])
	_ = writeBlockHeader(dataConn, blockHeader{}) // end-of-stripe
	var ack response
	if err := recvJSON(dataConn, &ack); err != nil || !ack.OK {
		t.Fatalf("stripe ack: %+v, %v", ack, err)
	}
	_ = dataConn.Close()

	conn2, _ := cl.dial()
	defer conn2.Close()
	_ = sendJSON(conn2, &request{Op: "put-commit", ID: id, CRC: 0xDEADBEEF})
	var resp response
	if err := recvJSON(conn2, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("bad CRC accepted")
	}
}

func TestGetRangeValidation(t *testing.T) {
	_, cl, _ := fixture(t)
	src, _ := writeTemp(t, 100, 7)
	if err := cl.Put(src, "r.bin", 1); err != nil {
		t.Fatal(err)
	}
	conn, _, err := cl.roundTrip(&request{Op: "get-data", Path: "r.bin", Offset: 500, Length: 10})
	if err == nil {
		_ = conn.Close()
		t.Fatal("out-of-range offset accepted")
	}
}

func TestPathEscapeRejected(t *testing.T) {
	_, cl, _ := fixture(t)
	if _, _, err := cl.Stat("../../etc/passwd"); err == nil {
		t.Fatal("path escape accepted")
	}
	// Absolute-ish and cleaned paths stay inside the root.
	src, _ := writeTemp(t, 10, 8)
	if err := cl.Put(src, "/abs/ok.bin", 1); err != nil {
		t.Fatal(err)
	}
}

// TestPathEscapeConfinedToRoot: a path that climbs is folded back under the
// root, so a file that really exists outside it cannot be reached.
func TestPathEscapeConfinedToRoot(t *testing.T) {
	srv, cl, root := fixture(t)
	outside := filepath.Join(filepath.Dir(root), "outside-"+filepath.Base(root)+".bin")
	if err := os.WriteFile(outside, []byte("secret"), 0o600); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Remove(outside) })
	for _, p := range []string{"../" + filepath.Base(outside), "a/../../" + filepath.Base(outside), "/../" + filepath.Base(outside)} {
		if _, _, err := cl.Stat(p); err == nil {
			t.Fatalf("%q reached a file outside the root", p)
		}
		got, err := srv.resolve(p)
		if err != nil || !strings.HasPrefix(got, root+string(filepath.Separator)) {
			t.Fatalf("resolve(%q) = %q, %v: not under %q", p, got, err, root)
		}
	}
}

// TestDotsInsideNamesAreOrdinary: only a ".." path element is a parent
// reference. Names that merely contain two dots used to be refused.
func TestDotsInsideNamesAreOrdinary(t *testing.T) {
	_, cl, root := fixture(t)
	src, _ := writeTemp(t, 64, 9)
	for _, name := range []string{"run..1.bin", "a..b/c.bin", "..hidden", "trailing../x.bin"} {
		if err := cl.Put(src, name, 1); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
		if size, _, err := cl.Stat(name); err != nil || size != 64 {
			t.Fatalf("stat %q: %d %v", name, size, err)
		}
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			t.Fatalf("%q is not where its name says: %v", name, err)
		}
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	_, cl1, _ := fixture(t)
	_, _, root2 := fixture(t)
	_ = root2
	srv2, cl2, root2 := fixture(t)
	_ = srv2

	src, data := writeTemp(t, 50_000, 9)
	if err := cl1.Put(src, "stage/data.bin", 2); err != nil {
		t.Fatal(err)
	}
	// Ask server 1 to push to server 2.
	if err := cl1.FXP("stage/data.bin", cl2.Addr, "mirrored/data.bin"); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(root2, "mirrored/data.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, data) {
		t.Fatal("third-party copy corrupt")
	}
}

func TestUnknownOp(t *testing.T) {
	_, cl, _ := fixture(t)
	_, _, err := cl.roundTrip(&request{Op: "frob"})
	if err == nil {
		t.Fatal("unknown op accepted")
	}
}
