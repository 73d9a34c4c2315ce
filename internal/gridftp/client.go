package gridftp

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"neesgrid/internal/telemetry"
)

// Client transfers files against one server. It keeps the connections of
// finished exchanges and reuses them, so it is meant to be held, shared
// between goroutines, and not copied; the zero value with Addr set is ready
// to use.
type Client struct {
	Addr string
	// BlockSize overrides the transfer block size.
	BlockSize int

	tel atomic.Pointer[clientCounters]

	mu     sync.Mutex
	idle   []*session // sessions between exchanges, most recently used last
	prefix string     // of this client's transfer ids; drawn at the first Put
	nextID int64
}

// clientCounters are the client's series in a shared registry.
type clientCounters struct {
	dials, reuses, staleRetries *telemetry.Counter
}

// UseTelemetry counts the client's connection use into reg:
// gridftp.client.dials (connections opened), gridftp.client.reuses (exchanges
// that took an idle session instead) and gridftp.client.stale_retries (reused
// sessions found dead and replaced by a dial). Clients sharing a registry add
// into the same series. A nil registry disables the export.
func (c *Client) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.tel.Store(nil)
		return
	}
	c.tel.Store(&clientCounters{
		dials:        reg.Counter("gridftp.client.dials"),
		reuses:       reg.Counter("gridftp.client.reuses"),
		staleRetries: reg.Counter("gridftp.client.stale_retries"),
	})
}

func (c *Client) dial() (*session, error) {
	conn, err := net.Dial("tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dial %s: %w", c.Addr, err)
	}
	if t := c.tel.Load(); t != nil {
		t.dials.Inc()
	}
	return newSession(conn), nil
}

// acquire takes the most recently used idle session, or dials.
func (c *Client) acquire() (*session, error) {
	c.mu.Lock()
	var sess *session
	if n := len(c.idle); n > 0 {
		sess, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	if sess == nil {
		return c.dial()
	}
	sess.reused = true
	if t := c.tel.Load(); t != nil {
		t.reuses.Inc()
	}
	return sess, nil
}

// release keeps a session whose exchange ended cleanly: the reply read, a
// get-data range read to its promised size, or a stripe's acknowledgement
// read. Every other session is closed by its user, never released.
func (c *Client) release(sess *session) {
	c.mu.Lock()
	keep := len(c.idle) < maxIdleSessions && sess.br.Buffered() == 0
	if keep {
		c.idle = append(c.idle, sess)
	}
	c.mu.Unlock()
	if !keep {
		_ = sess.Close()
	}
}

// finish releases the session of an exchange that ended without error and
// closes it otherwise.
func (c *Client) finish(sess *session, err error) {
	if err != nil {
		_ = sess.Close()
		return
	}
	c.release(sess)
}

func (c *Client) block() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return DefaultBlockSize
}

// exchange sends a header and reads its reply. answered reports whether any
// byte of a reply arrived.
func exchange(sess *session, req *request) (resp *response, answered bool, err error) {
	if err := sendJSON(sess, req); err != nil {
		return nil, false, fmt.Errorf("gridftp: send: %w", err)
	}
	if _, err := sess.br.Peek(1); err != nil {
		return nil, false, fmt.Errorf("gridftp: recv: %w", err)
	}
	resp = new(response)
	if err := recvJSON(sess, resp); err != nil {
		return nil, true, fmt.Errorf("gridftp: recv: %w", err)
	}
	return resp, true, nil
}

// roundTrip sends a header on an idle session, or on a new connection when
// none is idle, and returns the session with the reply read, ready for any
// binary phase. The caller hands the session to release (or finish) when the
// exchange is over, or closes it.
//
// A reused session may have been reaped or lost while it idled. If it fails
// before the first byte of a reply, the request is sent once more on a fresh
// connection; after a reply byte, or on a connection just dialed, never.
// Repeating is safe for every op even if the lost attempt ran: stat, get-data
// and put-status only read, put-init and put-data write the same bytes to the
// same place, and a put-commit that already ran has closed its transfer, so
// the repeat is refused instead of publishing anything twice.
func (c *Client) roundTrip(req *request) (*session, *response, error) {
	sess, err := c.acquire()
	if err != nil {
		return nil, nil, err
	}
	resp, answered, err := exchange(sess, req)
	if err != nil && sess.reused && !answered {
		_ = sess.Close()
		if t := c.tel.Load(); t != nil {
			t.staleRetries.Inc()
		}
		if sess, err = c.dial(); err != nil {
			return nil, nil, err
		}
		resp, _, err = exchange(sess, req)
	}
	if err != nil {
		_ = sess.Close()
		return nil, nil, err
	}
	if !resp.OK {
		c.release(sess)
		return nil, nil, fmt.Errorf("gridftp: server: %s", resp.Error)
	}
	return sess, resp, nil
}

// Stat returns size and CRC of a remote file.
func (c *Client) Stat(remotePath string) (size int64, crc uint32, err error) {
	sess, resp, err := c.roundTrip(&request{Op: "stat", Path: remotePath})
	if err != nil {
		return 0, 0, err
	}
	c.release(sess)
	return resp.Size, resp.CRC, nil
}

// Get downloads a remote file into localPath using `streams` parallel
// range-striped connections, then verifies the CRC.
func (c *Client) Get(remotePath, localPath string, streams int) error {
	if streams < 1 {
		streams = 1
	}
	size, wantCRC, err := c.Stat(remotePath)
	if err != nil {
		return err
	}
	f, err := os.Create(localPath)
	if err != nil {
		return fmt.Errorf("gridftp: create %s: %w", localPath, err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("gridftp: truncate: %w", err)
	}
	// Split into `streams` contiguous ranges.
	var wg sync.WaitGroup
	errs := make([]error, streams)
	chunk := (size + int64(streams) - 1) / int64(streams)
	for i := 0; i < streams; i++ {
		off := int64(i) * chunk
		if off >= size {
			break
		}
		length := chunk
		if off+length > size {
			length = size - off
		}
		wg.Add(1)
		go func(i int, off, length int64) {
			defer wg.Done()
			errs[i] = c.getRange(remotePath, f, off, length)
		}(i, off, length)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	if h.Sum32() != wantCRC {
		return fmt.Errorf("gridftp: download crc mismatch: got %08x want %08x", h.Sum32(), wantCRC)
	}
	return nil
}

func (c *Client) getRange(remotePath string, f *os.File, off, length int64) (err error) {
	sess, resp, err := c.roundTrip(&request{Op: "get-data", Path: remotePath, Offset: off, Length: length})
	if err != nil {
		return err
	}
	defer func() { c.finish(sess, err) }()
	buf := sess.buffer(DefaultBlockSize)
	remaining := resp.Size
	pos := off
	for remaining > 0 {
		n := int64(len(buf))
		if n > remaining {
			n = remaining
		}
		read, err := io.ReadFull(sess, buf[:n])
		if err != nil {
			return fmt.Errorf("gridftp: range read: %w", err)
		}
		if _, err := f.WriteAt(buf[:read], pos); err != nil {
			return err
		}
		pos += int64(read)
		remaining -= int64(read)
	}
	return nil
}

// Put uploads localPath to remotePath using `streams` striped connections
// and commits with a CRC check. Interrupted uploads can be resumed with
// Resume using the same transfer id; Put generates a fresh id.
func (c *Client) Put(localPath, remotePath string, streams int) error {
	id, err := c.newTransferID()
	if err != nil {
		return err
	}
	return c.put(localPath, remotePath, id, streams, nil)
}

// newTransferID names a transfer put-<prefix>-<n>. The prefix is random per
// Client, so two clients of one process, or two processes with the same pid
// on different hosts, cannot name the same transfer.
func (c *Client) newTransferID() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prefix == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("gridftp: transfer id: %w", err)
		}
		c.prefix = hex.EncodeToString(b[:])
	}
	c.nextID++
	return fmt.Sprintf("put-%s-%d", c.prefix, c.nextID), nil
}

// Resume continues an interrupted upload under a caller-chosen transfer id,
// skipping blocks the server already holds.
func (c *Client) Resume(localPath, remotePath, transferID string, streams int) error {
	return c.put(localPath, remotePath, transferID, streams, nil)
}

// PutWithID uploads under a caller-chosen transfer id, with an optional
// per-block hook the fault-injection tests use to kill streams mid-flight.
// The stripes call the hook one at a time, so it may keep state unguarded.
func (c *Client) PutWithID(localPath, remotePath, transferID string, streams int, onBlock func(block int) error) error {
	return c.put(localPath, remotePath, transferID, streams, onBlock)
}

func (c *Client) put(localPath, remotePath, id string, streams int, onBlock func(int) error) error {
	if streams < 1 {
		streams = 1
	}
	f, err := os.Open(localPath)
	if err != nil {
		return fmt.Errorf("gridftp: open %s: %w", localPath, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	bs := c.block()
	if hook := onBlock; hook != nil {
		var mu sync.Mutex
		onBlock = func(block int) error {
			mu.Lock()
			defer mu.Unlock()
			return hook(block)
		}
	}

	// Init (idempotent): learn which blocks the server already has.
	sess, resp, err := c.roundTrip(&request{
		Op: "put-init", ID: id, Path: remotePath, Size: size, Block: bs, Streams: streams,
	})
	if err != nil {
		return err
	}
	c.release(sess)
	have := make(map[int]bool, len(resp.Received))
	for _, b := range resp.Received {
		have[b] = true
	}

	blocks := int((size + int64(bs) - 1) / int64(bs))
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			errs[stripe] = c.putStripe(f, id, stripe, streams, blocks, bs, size, have, onBlock)
		}(s)
	}
	wg.Wait()
	var streamErr error
	for _, err := range errs {
		if err != nil {
			streamErr = err
			break
		}
	}
	if streamErr != nil {
		return fmt.Errorf("gridftp: upload stream: %w", streamErr)
	}

	// Commit with CRC.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	sess, _, err = c.roundTrip(&request{Op: "put-commit", ID: id, CRC: h.Sum32()})
	if err != nil {
		return err
	}
	c.release(sess)
	return nil
}

func (c *Client) putStripe(f *os.File, id string, stripe, streams, blocks, bs int, size int64, have map[int]bool, onBlock func(int) error) (err error) {
	sess, _, err := c.roundTrip(&request{Op: "put-data", ID: id, Stripe: stripe})
	if err != nil {
		return err
	}
	defer func() { c.finish(sess, err) }()
	buf := sess.buffer(bs)
	for b := stripe; b < blocks; b += streams {
		if have[b] {
			continue
		}
		if onBlock != nil {
			if err := onBlock(b); err != nil {
				cutShort(sess)
				return err
			}
		}
		off := int64(b) * int64(bs)
		n := int64(bs)
		if off+n > size {
			n = size - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			cutShort(sess)
			return err
		}
		if err := writeBlockHeader(sess, blockHeader{Offset: off, Length: int32(n)}); err != nil {
			return err
		}
		if _, err := sess.Write(buf[:n]); err != nil {
			return err
		}
	}
	// End-of-stripe marker; wait for the server to acknowledge that every
	// block of this stream is applied before the caller commits.
	if err := writeBlockHeader(sess, blockHeader{}); err != nil {
		return err
	}
	var ack response
	if err := recvJSON(sess, &ack); err != nil {
		return fmt.Errorf("gridftp: stripe ack: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("gridftp: stripe rejected: %s", ack.Error)
	}
	return nil
}

// cutShort ends a stripe that stops for a reason of the client's own, the
// connection still good: it half-closes and waits for the server to hang up,
// which it does on reaching the cut. Every block the stripe sent is then on
// the restart marker before the caller hears of the failure, so a Resume
// that follows resends none of them. The wait ends with the server's idle
// deadline at the latest.
func cutShort(sess *session) {
	if hc, ok := sess.Conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		_ = sess.SetReadDeadline(time.Now().Add(idleTimeout))
		_, _ = io.Copy(io.Discard, sess)
	}
}

// Status queries the restart marker of an in-progress upload.
func (c *Client) Status(transferID string) ([]int, error) {
	sess, resp, err := c.roundTrip(&request{Op: "put-status", ID: transferID})
	if err != nil {
		return nil, err
	}
	c.release(sess)
	return resp.Received, nil
}
