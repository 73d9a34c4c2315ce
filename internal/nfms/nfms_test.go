package nfms

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neesgrid/internal/gridftp"
	"neesgrid/internal/telemetry"
)

const alice = "/O=NEES/CN=alice"

func tempFile(t *testing.T, size int, seed int64) (string, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	p := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p, data
}

func gridftpServer(t *testing.T) (string, string) {
	t.Helper()
	root := t.TempDir()
	srv, err := gridftp.NewServer(root)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, root
}

func TestRegisterResolve(t *testing.T) {
	s := New()
	e, err := s.Register(alice, "most/run1/data.csv", 100,
		Replica{Transport: "local", Path: "/tmp/x"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Owner != alice || e.Size != 100 {
		t.Fatalf("entry = %+v", e)
	}
	got, err := s.Resolve("most/run1/data.csv")
	if err != nil || got.Logical != "most/run1/data.csv" {
		t.Fatalf("resolve = %+v, %v", got, err)
	}
	if _, err := s.Resolve("missing"); err == nil {
		t.Fatal("missing resolve accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := New()
	if _, err := s.Register(alice, "", 0, Replica{Transport: "local", Path: "x"}); err == nil {
		t.Fatal("empty logical accepted")
	}
	if _, err := s.Register(alice, "x", 0); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := s.Register(alice, "x", 0, Replica{Transport: "carrier-pigeon", Path: "x"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	_, _ = s.Register(alice, "dup", 0, Replica{Transport: "local", Path: "x"})
	if _, err := s.Register(alice, "dup", 0, Replica{Transport: "local", Path: "x"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestNegotiatePreference(t *testing.T) {
	s := New()
	_, _ = s.Register(alice, "f", 10,
		Replica{Transport: "gridftp", Addr: "a:1", Path: "p1"},
		Replica{Transport: "local", Path: "p2"},
	)
	// No preference: catalog order.
	r, tr, err := s.Negotiate("f")
	if err != nil || r.Transport != "gridftp" || tr == nil {
		t.Fatalf("negotiate = %+v, %v", r, err)
	}
	// Prefer local.
	r, _, err = s.Negotiate("f", "local")
	if err != nil || r.Transport != "local" {
		t.Fatalf("negotiate local = %+v, %v", r, err)
	}
	// Preference not satisfiable.
	if _, _, err := s.Negotiate("f", "https"); err == nil {
		t.Fatal("unsatisfiable preference accepted")
	}
	if _, _, err := s.Negotiate("missing"); err == nil {
		t.Fatal("missing logical accepted")
	}
}

func TestUploadDownloadGridFTP(t *testing.T) {
	addr, _ := gridftpServer(t)
	s := New()
	src, data := tempFile(t, 200_000, 1)
	e, err := s.Upload(alice, "most/block1.csv", src,
		Replica{Transport: "gridftp", Addr: addr, Path: "most/block1.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 200_000 {
		t.Fatalf("size = %d", e.Size)
	}
	dst := filepath.Join(t.TempDir(), "out.bin")
	if err := s.Download("most/block1.csv", dst); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupt")
	}
}

func TestUploadLocalTransport(t *testing.T) {
	s := New()
	src, data := tempFile(t, 1000, 2)
	target := filepath.Join(t.TempDir(), "stored.bin")
	if _, err := s.Upload(alice, "f", src, Replica{Transport: "local", Path: target}); err != nil {
		t.Fatal(err)
	}
	stored, _ := os.ReadFile(target)
	if !bytes.Equal(stored, data) {
		t.Fatal("local store corrupt")
	}
	dst := filepath.Join(t.TempDir(), "back.bin")
	if err := s.Download("f", dst, "local"); err != nil {
		t.Fatal(err)
	}
	back, _ := os.ReadFile(dst)
	if !bytes.Equal(back, data) {
		t.Fatal("local fetch corrupt")
	}
}

func TestUploadErrors(t *testing.T) {
	s := New()
	if _, err := s.Upload(alice, "f", "/does/not/exist", Replica{Transport: "local", Path: "x"}); err == nil {
		t.Fatal("missing source accepted")
	}
	src, _ := tempFile(t, 10, 3)
	if _, err := s.Upload(alice, "f", src, Replica{Transport: "nope", Path: "x"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestMultiReplicaEntry: a logical file registered with replicas on two
// servers resolves to both, and downloads from the first.
func TestMultiReplicaEntry(t *testing.T) {
	addr1, _ := gridftpServer(t)
	addr2, _ := gridftpServer(t)
	s := New()
	src, data := tempFile(t, 50_000, 4)
	for _, addr := range []string{addr1, addr2} {
		cl := &gridftp.Client{Addr: addr}
		if err := cl.Put(src, "f", 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Register(alice, "f", int64(len(data)),
		Replica{Transport: "gridftp", Addr: addr1, Path: "f"},
		Replica{Transport: "gridftp", Addr: addr2, Path: "f"}); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Resolve("f")
	if len(e.Replicas) != 2 {
		t.Fatalf("replicas = %d", len(e.Replicas))
	}
	dst := filepath.Join(t.TempDir(), "d.bin")
	if err := s.Download("f", dst); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("multi-replica fetch corrupt")
	}
}

func TestDeleteAuthorization(t *testing.T) {
	s := New()
	_, _ = s.Register(alice, "f", 0, Replica{Transport: "local", Path: "x"})
	if err := s.Delete("/O=NEES/CN=bob", "f"); err == nil {
		t.Fatal("non-owner delete accepted")
	}
	if err := s.Delete(alice, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve("f"); err == nil {
		t.Fatal("deleted entry still resolvable")
	}
	if err := s.Delete(alice, "f"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestList(t *testing.T) {
	s := New()
	_, _ = s.Register(alice, "b", 0, Replica{Transport: "local", Path: "x"})
	_, _ = s.Register(alice, "a", 0, Replica{Transport: "local", Path: "y"})
	got := s.List()
	if len(got) != 2 || got[0].Logical != "a" {
		t.Fatalf("list = %v", got)
	}
}

func TestCustomTransportPlugin(t *testing.T) {
	s := New()
	calls := 0
	s.RegisterTransport("memory", transportFunc(func() { calls++ }))
	src, _ := tempFile(t, 10, 5)
	if _, err := s.Upload(alice, "f", src, Replica{Transport: "memory", Path: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Download("f", filepath.Join(t.TempDir(), "o")); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("plugin calls = %d", calls)
	}
}

type transportFunc func()

func (f transportFunc) Fetch(Replica, string) error { f(); return nil }
func (f transportFunc) Store(string, Replica) error { f(); return nil }

// TestConcurrentUploadsDoNotCollide: eight uploads at once through one
// service to one server. Every transfer used to be named put-<pid>-1 (a new
// gridftp client, so a new counter, per call) and the server joined them all
// to the first one's file: crc mismatches and resets.
func TestConcurrentUploadsDoNotCollide(t *testing.T) {
	addr, root := gridftpServer(t)
	s := New()
	const n = 8
	srcs, want := make([]string, n), make([][]byte, n)
	for i := range srcs {
		srcs[i], want[i] = tempFile(t, 1<<20, int64(100+i))
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			name := fmt.Sprintf("concurrent/%d.bin", i)
			_, err := s.Upload(alice, name, srcs[i], Replica{Transport: "gridftp", Addr: addr, Path: name})
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := os.ReadFile(filepath.Join(root, fmt.Sprintf("concurrent/%d.bin", i)))
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("file %d: stored bytes differ (%v)", i, err)
		}
	}
}

// TestTransfersShareSessions: twenty uploads and downloads of a two-block
// file through one service open as many connections as a transfer has
// streams, where each used to open seven; the transport's dials and reuses
// add up to every exchange.
func TestTransfersShareSessions(t *testing.T) {
	addr, _ := gridftpServer(t)
	tr := &GridFTPTransport{}
	reg := telemetry.NewRegistry()
	tr.UseTelemetry(reg)
	s := New()
	s.RegisterTransport("gridftp", tr)

	src, data := tempFile(t, gridftp.DefaultBlockSize+1000, 6)
	dst := filepath.Join(t.TempDir(), "back.bin")
	const rounds = 20
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("shared/%d.bin", i)
		if _, err := s.Upload(alice, name, src, Replica{Transport: "gridftp", Addr: addr, Path: name}); err != nil {
			t.Fatal(err)
		}
		if err := s.Download(name, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(dst); !bytes.Equal(got, data) {
		t.Fatal("round trip corrupt")
	}
	dials := reg.Counter("gridftp.client.dials").Value()
	if dials > int64(tr.streams()) {
		t.Fatalf("%d transfers dialed %d connections, want at most %d", 2*rounds, dials, tr.streams())
	}
	if reused := reg.Counter("gridftp.client.reuses").Value(); dials+reused != rounds*7 {
		t.Fatalf("counters: %d dials + %d reuses, want %d exchanges", dials, reused, rounds*7)
	}
	if tr.client(addr) != tr.client(addr) || tr.client(addr) == tr.client("other:1") {
		t.Fatal("want one client per replica address")
	}
}

// TestUploadRefusesTakenNameBeforeStore: an upload under a logical name that
// is already registered must fail before the transport runs; it used to store
// first, overwriting the archived replica, and fail afterwards.
func TestUploadRefusesTakenNameBeforeStore(t *testing.T) {
	s := New()
	stores := 0
	s.RegisterTransport("counting", transportFunc(func() { stores++ }))
	first, _ := tempFile(t, 10, 6)
	if _, err := s.Upload(alice, "f", first, Replica{Transport: "counting", Path: "x"}); err != nil {
		t.Fatal(err)
	}
	if stores != 1 {
		t.Fatalf("%d Store calls for the first upload", stores)
	}
	second, _ := tempFile(t, 10, 7)
	if _, err := s.Upload(alice, "f", second, Replica{Transport: "counting", Path: "x"}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("second upload of a taken name: %v", err)
	}
	if stores != 1 {
		t.Fatalf("the refused upload reached the transport: %d Store calls, want 1", stores)
	}

	// With the real thing: the archived bytes survive the refused upload.
	target := filepath.Join(t.TempDir(), "stored.bin")
	src, data := tempFile(t, 1000, 8)
	if _, err := s.Upload(alice, "g", src, Replica{Transport: "local", Path: target}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Upload(alice, "g", second, Replica{Transport: "local", Path: target}); err == nil {
		t.Fatal("second upload of a taken name accepted")
	}
	if stored, _ := os.ReadFile(target); !bytes.Equal(stored, data) {
		t.Fatal("the refused upload overwrote the archived replica")
	}
}
