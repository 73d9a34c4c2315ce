// Package journal is the durable log under state that must survive its
// process: records are appended and fsync'd one at a time, a snapshot
// replaces the whole log atomically, and replay accepts a torn final record
// and nothing else (DESIGN.md §5e).
//
// A log is a sequence of frames, each [len u32][crc32c u32][payload] with
// both header fields little-endian and the CRC (Castagnoli) taken over the
// payload. A record is never empty, so a zero length never starts a frame.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

const headerSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that fails its check and is not the last one
// in the log, so no interrupted append can explain it.
var ErrCorrupt = errors.New("journal: corrupt record")

// Journal is a log open for appending. It is not safe for concurrent use.
type Journal struct {
	path string
	f    *os.File
	size int64
	buf  []byte
	// err is sticky: after a failed write or sync the file's tail is
	// unknown, and a record appended after it could land behind garbage.
	// Only a Snapshot, which replaces the file, clears it.
	err error
}

// Open opens the log at path for appending. A file that does not exist is
// created, and its directory fsync'd so that the name survives a power
// loss. A torn tail is cut off before anything is appended; a corrupt
// record anywhere else is an error wrapping ErrCorrupt.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		if err := syncDir(path); err != nil {
			_ = f.Close()
			return nil, err
		}
		return &Journal{path: path, f: f}, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	end, err := scan(data, nil)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if end < len(data) {
		if err = f.Truncate(int64(end)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: cut torn tail: %w", err)
		}
	}
	return &Journal{path: path, f: f, size: int64(end)}, nil
}

// Create replaces whatever is at path with a log holding recs, atomically
// (see Snapshot), and returns it open for appending.
func Create(path string, recs ...[]byte) (*Journal, error) {
	j := &Journal{path: path}
	if err := j.Snapshot(recs...); err != nil {
		return nil, err
	}
	return j, nil
}

// Append adds rec to the log with one write and syncs the file before it
// returns. rec must not be empty.
func (j *Journal) Append(rec []byte) error {
	if j.err != nil {
		return j.err
	}
	if err := checkRecord(rec); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	j.buf = appendFrame(j.buf[:0], rec)
	_, err := j.f.Write(j.buf)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.err = fmt.Errorf("journal: append to %s: %w", j.path, err)
		return j.err
	}
	j.size += int64(len(j.buf))
	return nil
}

// Snapshot replaces the log with one holding recs: they are written to a
// temporary file beside it, which is fsync'd and renamed over the log, and
// then the directory is fsync'd so that the rename survives a power loss.
// A crash at any point leaves either the old log or the new one whole.
// Later appends go to the new log.
func (j *Journal) Snapshot(recs ...[]byte) error {
	var buf []byte
	for _, rec := range recs {
		if err := checkRecord(rec); err != nil {
			return fmt.Errorf("journal: snapshot %s: %w", j.path, err)
		}
		buf = appendFrame(buf, rec)
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot %s: %w", j.path, err)
	}
	if _, err = f.Write(buf); err == nil {
		if err = f.Sync(); err == nil {
			err = os.Rename(tmp, j.path)
		}
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: snapshot %s: %w", j.path, err)
	}
	if j.f != nil {
		// The replaced file: everything in it was synced when written.
		_ = j.f.Close()
	}
	j.f, j.size, j.err = f, int64(len(buf)), nil
	if err := syncDir(j.path); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Size is the length of the log in bytes.
func (j *Journal) Size() int64 { return j.size }

// Close closes the log. Every record was synced when it was written, so
// Close adds no durability.
func (j *Journal) Close() error { return j.f.Close() }

// Replay calls fn with every record of the log at path, in order. A final
// record that is cut short or fails its CRC is a torn tail — the append
// writing it never finished — and Replay ends before it without error. A
// record that fails its check with more bytes after it is corruption:
// Replay returns an error wrapping ErrCorrupt, after fn has seen the records
// before it. rec aliases a buffer Replay never reuses, so fn may keep it.
func Replay(path string, fn func(rec []byte)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := scan(data, fn); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// scan walks the frames of data, calling fn (when non-nil) with each
// record, and returns the length of the prefix made of whole, valid frames.
// What follows that prefix is a torn tail.
func scan(data []byte, fn func(rec []byte)) (int, error) {
	off := 0
	for len(data)-off >= headerSize {
		rest := data[off:]
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-headerSize) {
			break // cut short, so the last record
		}
		end := headerSize + int(n)
		if n == 0 || crc32.Checksum(rest[headerSize:end], castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			// A record that fails its check is a torn tail when it is the
			// last one, or when zeros run to the end of the file: an append
			// whose size change landed before its bytes did.
			if end == len(rest) || allZero(rest) {
				break
			}
			return off, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			fn(rest[headerSize:end:end])
		}
		off += end
	}
	return off, nil
}

func checkRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("empty record")
	}
	if uint64(len(rec)) > math.MaxUint32 {
		return fmt.Errorf("record of %d bytes overflows its length field", len(rec))
	}
	return nil
}

func appendFrame(dst, rec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(rec, castagnoli))
	return append(dst, rec...)
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// syncDir fsyncs the directory holding path, making a create or rename of
// path durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("journal: sync directory of %s: %w", path, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: sync directory of %s: %w", path, err)
	}
	return nil
}
