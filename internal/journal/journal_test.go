package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// frameOf encodes rec the way the package documents it, independently of
// appendFrame, so the tests check the format rather than echo the code.
func frameOf(rec []byte) []byte {
	out := make([]byte, 8, 8+len(rec))
	binary.LittleEndian.PutUint32(out, uint32(len(rec)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, rec...)
}

func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var recs [][]byte
	if err := Replay(path, func(rec []byte) { recs = append(recs, rec) }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func wantRecords(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("replayed %q, want %q", got, want)
		}
	}
}

func mustAppend(t *testing.T, j *Journal, recs ...string) {
	t.Helper()
	for _, rec := range recs {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendReplayAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "one", "two")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = Open(path); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "three")
	size := j.Size()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, replayAll(t, path), "one", "two", "three")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(frameOf([]byte("one")), frameOf([]byte("two"))...), frameOf([]byte("three"))...)
	if !bytes.Equal(data, want) || size != int64(len(want)) {
		t.Fatalf("file is %x (size %d), want %x", data, size, want)
	}
	if err := Replay(filepath.Join(t.TempDir(), "missing"), func([]byte) {}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Replay of a missing log: %v", err)
	}
}

// A crash mid-append leaves the last record cut short, failing its CRC, or
// (when the file's new size landed before its bytes) zeros. Replay ends
// before it, and Open cuts it off so that the next record follows the last
// whole one.
func TestOpenCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	whole := append(frameOf([]byte("first")), frameOf([]byte("second"))...)
	last := len(frameOf([]byte("first")))
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	tails := map[string][]byte{"zeros": append(whole[:last:last], make([]byte, 14)...)}
	tails["crc"] = flipped
	for cut := last + 1; cut < len(whole); cut++ {
		tails[fmt.Sprintf("cut-%d", cut)] = whole[:cut]
	}
	for name, data := range tails {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords(t, replayAll(t, path), "first")
		j, err := Open(path)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if j.Size() != int64(last) {
			t.Fatalf("%s: Open left %d bytes, want %d", name, j.Size(), last)
		}
		mustAppend(t, j, "next")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		wantRecords(t, replayAll(t, path), "first", "next")
	}
}

// A record that fails its check with more bytes after it is no torn tail:
// Replay and Open refuse the log.
func TestCorruptionBeforeTheTailIsRefused(t *testing.T) {
	dir := t.TempDir()
	good := append(frameOf([]byte("first")), frameOf([]byte("second"))...)
	cases := map[string][]byte{
		"payload":  append([]byte(nil), good...),
		"checksum": append([]byte(nil), good...),
		"zero-length": append(make([]byte, 8),
			frameOf([]byte("second"))...),
	}
	cases["payload"][9] ^= 1
	cases["checksum"][5] ^= 1
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Replay(path, func([]byte) {}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Replay = %v, want ErrCorrupt", name, err)
		}
		if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// Create replaces a stale file whole, a Snapshot replaces the log with its
// records and later appends go to the new log, and no temporary file is
// left behind.
func TestSnapshotReplacesTheLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if err := os.WriteFile(path, []byte("stale, and not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Create(path, []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "a", "b", "c")
	wantRecords(t, replayAll(t, path), "base", "a", "b", "c")
	if err := j.Snapshot([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if j.Size() != int64(len(frameOf([]byte("c")))) {
		t.Fatalf("size after snapshot %d", j.Size())
	}
	mustAppend(t, j, "d")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, replayAll(t, path), "c", "d")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the log", len(entries))
	}
	if err := j.Snapshot(nil, []byte("x")); err == nil {
		t.Fatal("snapshot of an empty record accepted")
	}
	if _, err := Create(filepath.Join(dir, "new"), []byte{}); err == nil {
		t.Fatal("empty record accepted")
	}
}

// FuzzJournalReplay replays arbitrary bytes as a log. The records it yields
// re-encode to a prefix of the input; what follows that prefix is either
// one torn final record or, when Replay refuses the log, a whole record
// that fails its check before the end; appending after an accepted input
// yields the appended record last; and no length field makes Replay
// allocate before its bytes are there.
func FuzzJournalReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "log")
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Replay(path, func(rec []byte) { recs = append(recs, rec) })
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10+4*uint64(len(in)) {
			t.Fatalf("replaying %d bytes allocated %d", len(in), alloc)
		}
		var prefix []byte
		for _, rec := range recs {
			prefix = append(prefix, frameOf(rec)...)
		}
		if !bytes.HasPrefix(in, prefix) {
			t.Fatalf("records %q do not re-encode to a prefix of the input", recs)
		}
		rest := in[len(prefix):]
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || tornTail(rest) || !failsCheck(rest) {
				t.Fatalf("refused %x after %d records: %v", rest, len(recs), err)
			}
			if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open of a log Replay refuses: %v", err)
			}
			return
		}
		if !tornTail(rest) {
			t.Fatalf("accepted %x after %d records, which is no torn tail", rest, len(recs))
		}
		j, err := Open(path)
		if err != nil {
			t.Fatalf("Open of a log Replay accepts: %v", err)
		}
		mustAppend(t, j, "appended")
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) != len(recs)+1 || string(got[len(recs)]) != "appended" {
			t.Fatalf("after an append, replayed %q; want the %d records before it, then \"appended\"",
				got, len(recs))
		}
	})
}

// tornTail reports whether rest could be what an interrupted append left:
// nothing, a frame cut short, a whole frame failing its CRC with nothing
// after it, or zeros.
func tornTail(rest []byte) bool {
	if len(rest) < 8 || bytes.Count(rest, []byte{0}) == len(rest) {
		return true
	}
	n := uint64(binary.LittleEndian.Uint32(rest))
	return n > uint64(len(rest)-8) || (n == uint64(len(rest)-8) && failsCheck(rest))
}

// failsCheck reports whether rest starts with a header whose record is
// there in full and fails its CRC, or a zero length.
func failsCheck(rest []byte) bool {
	if len(rest) < 8 {
		return false
	}
	n := uint64(binary.LittleEndian.Uint32(rest))
	if n == 0 {
		return true
	}
	return n <= uint64(len(rest)-8) &&
		!bytes.Equal(frameOf(rest[8:8+n]), rest[:8+n])
}
