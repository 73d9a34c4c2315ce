// Package gridftp implements a GridFTP-style file transfer service: striped
// parallel TCP streams, block-addressed writes with restart markers (a
// partial upload can be resumed without resending received blocks), CRC
// integrity checks, and third-party transfer between two servers. These are
// the GridFTP capabilities the NEESgrid repository depends on (paper §2.3,
// [3]); the wire protocol is our own (JSON headers + binary block frames)
// rather than RFC 959 extensions, per the substitution policy in DESIGN.md.
//
// A connection is a session: any number of exchanges, one after the other,
// each a header line, its reply line, and for put-data and get-data a binary
// phase. Either end keeps a session only while both agree where the next
// header starts, and closes it otherwise; the client holds idle sessions
// between transfers and redials one found dead (DESIGN.md §5j).
package gridftp

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"
)

// DefaultBlockSize is the transfer block granularity.
const DefaultBlockSize = 64 << 10

// The session limits are constants, not options: no caller at this commit
// needs a second value of any of them, and each option would be one more
// configuration for the tests and the benchmark to cover.
const (
	// maxBlockSize bounds the block a put-init may ask for: the server
	// allocates one block per data stream.
	maxBlockSize = 4 << 20
	// maxHeaderLine bounds one JSON header line.
	maxHeaderLine = 1 << 20
	// readerSize is each session's read buffer: a header line, or a block
	// frame's 12 bytes and the head of its payload, in one read(2). Larger
	// reads bypass it, so the rest of a payload is not copied twice.
	readerSize = 4 << 10
	// idleTimeout is how long the server waits for a session's next request
	// or next block before it closes the connection. The client needs no
	// matching timer: it finds a reaped session stale and redials.
	idleTimeout = 60 * time.Second
	// maxIdleSessions caps the connections a Client keeps between transfers.
	maxIdleSessions = 8
)

// request is the header that opens every exchange of a session.
type request struct {
	Op      string `json:"op"`
	Path    string `json:"path,omitempty"`
	ID      string `json:"id,omitempty"`
	Size    int64  `json:"size,omitempty"`
	Block   int    `json:"block,omitempty"`
	Streams int    `json:"streams,omitempty"`
	Stripe  int    `json:"stripe,omitempty"`
	Offset  int64  `json:"offset,omitempty"`
	Length  int64  `json:"length,omitempty"`
	CRC     uint32 `json:"crc,omitempty"`
}

// response answers a header.
type response struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	Size     int64  `json:"size,omitempty"`
	CRC      uint32 `json:"crc,omitempty"`
	Received []int  `json:"received,omitempty"` // block indexes present (restart marker)
}

// blockHeader precedes each binary block on a data stream.
type blockHeader struct {
	Offset int64
	Length int32
}

func writeBlockHeader(w io.Writer, h blockHeader) error {
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(h.Offset))
	binary.BigEndian.PutUint32(buf[8:12], uint32(h.Length))
	_, err := w.Write(buf[:])
	return err
}

func readBlockHeader(br *bufio.Reader) (blockHeader, error) {
	buf, err := br.Peek(12)
	if err != nil {
		return blockHeader{}, err
	}
	h := blockHeader{
		Offset: int64(binary.BigEndian.Uint64(buf[0:8])),
		Length: int32(binary.BigEndian.Uint32(buf[8:12])),
	}
	_, err = br.Discard(12)
	return h, err
}

// session is one connection as either end holds it between and during
// exchanges. Every read, header line or binary frame, goes through the one
// buffered reader, so bytes buffered past a header are the start of the data
// phase rather than lost; writes and sendfile go to the embedded raw
// connection.
type session struct {
	net.Conn
	br *bufio.Reader
	// scratch is the session's transfer buffer, made by the first exchange
	// that moves bytes and kept for those that follow (see buffer).
	scratch []byte
}

func newSession(conn net.Conn) *session {
	return &session{Conn: conn, br: bufio.NewReaderSize(conn, readerSize)}
}

func (s *session) Read(p []byte) (int, error) { return s.br.Read(p) }

// buffer returns n bytes for the exchange in progress to move data through.
// Up to DefaultBlockSize they are the session's own and the next exchange gets
// the same bytes, so one exchange at a time may use them, as one exchange at a
// time uses the connection. A larger buffer (a put-init may ask for blocks up
// to maxBlockSize) is made for the exchange and goes with it: a session that
// idles, whoever opened it, holds 64 KiB at most.
func (s *session) buffer(n int) []byte {
	if n > DefaultBlockSize {
		return make([]byte, n)
	}
	if s.scratch == nil {
		s.scratch = make([]byte, DefaultBlockSize)
	}
	return s.scratch[:n]
}

// sendJSON writes one JSON line.
func sendJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// recvJSON reads one JSON line (bounded).
func recvJSON(s *session, v any) error {
	line, err := readLine(s.br, maxHeaderLine)
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// readLine returns the bytes up to the next newline. A line that fits the
// reader's buffer is returned in place (valid until the next read); a longer
// one is gathered up to max.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var long []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if err == nil {
			if long == nil {
				return chunk[:len(chunk)-1], nil
			}
			long = append(long, chunk...)
			return long[:len(long)-1], nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
		long = append(long, chunk...)
		if len(long) > max {
			return nil, fmt.Errorf("gridftp: header line too long")
		}
	}
}
