package gridftp

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
)

// Server serves files under a root directory.
type Server struct {
	root string
	tel  atomic.Pointer[serverCounters]
	tcp  *runtime.ConnServer

	mu      sync.Mutex
	uploads map[string]*upload
}

// upload tracks one in-progress striped PUT and its restart marker.
type upload struct {
	mu       sync.Mutex
	path     string // final path (relative)
	tmp      string // absolute .part path
	size     int64
	block    int
	received map[int]bool // block index → present
	file     *os.File
}

// handlers maps each op to its handler. A handler returns whether the
// session is still in a known state — the header answered, the data phase
// consumed or produced to the byte — and so may carry another request;
// anything else closes the connection.
var handlers = map[string]func(*Server, context.Context, *session, *request) bool{
	"stat":       (*Server).handleStat,
	"get-data":   (*Server).handleGetData,
	"put-init":   (*Server).handlePutInit,
	"put-data":   (*Server).handlePutData,
	"put-status": (*Server).handlePutStatus,
	"put-commit": (*Server).handlePutCommit,
}

// serverCounters are the server's series in a shared registry.
type serverCounters struct {
	sessions, bytesIn, bytesOut *telemetry.Counter
	uploadsOpen                 *telemetry.Gauge
	requests                    map[string]*telemetry.Counter // by op, plus "unknown"
}

// UseTelemetry exports the server's activity into reg:
// gridftp.server.sessions (connections accepted),
// gridftp.server.requests.<op> (headers handled; ops the server does not know
// count under "unknown"), gridftp.server.bytes_in / bytes_out (block payload
// received by put-data, file bytes sent by get-data) and the gauge
// gridftp.server.uploads_open (uploads begun and not yet committed). Every
// series is registered at zero. A nil registry disables the export.
func (s *Server) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel.Store(nil)
		return
	}
	t := &serverCounters{
		sessions:    reg.Counter("gridftp.server.sessions"),
		bytesIn:     reg.Counter("gridftp.server.bytes_in"),
		bytesOut:    reg.Counter("gridftp.server.bytes_out"),
		uploadsOpen: reg.Gauge("gridftp.server.uploads_open"),
		requests:    map[string]*telemetry.Counter{"unknown": reg.Counter("gridftp.server.requests.unknown")},
	}
	for op := range handlers {
		t.requests[op] = reg.Counter("gridftp.server.requests." + op)
	}
	s.mu.Lock()
	t.uploadsOpen.Set(float64(len(s.uploads)))
	s.tel.Store(t)
	s.mu.Unlock()
}

// noteUploads publishes the number of open uploads; callers hold s.mu.
func (s *Server) noteUploads() {
	if t := s.tel.Load(); t != nil {
		t.uploadsOpen.Set(float64(len(s.uploads)))
	}
}

// NewServer serves the given root directory (created if missing).
func NewServer(root string) (*Server, error) { return newServer(runtime.Env{}, root) }

func newServer(env runtime.Env, root string) (*Server, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("gridftp: root: %w", err)
	}
	s := &Server{root: root, uploads: make(map[string]*upload)}
	s.tcp = runtime.NewConnServer(env, "gridftp", s.serve)
	return s, nil
}

var errClosed = errors.New("gridftp: server closed")

// Start listens on addr; returns the bound address.
func (s *Server) Start(addr string) (string, error) { return s.tcp.Start(addr) }

// Close stops the listener, cuts every live session, waits for the handlers
// to return, and closes the .part files of uploads left unfinished (the files
// stay on disk; their restart markers go with the server).
func (s *Server) Close() error {
	err := s.tcp.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, up := range s.uploads {
		_ = up.file.Close() // a committed upload's file is closed already
		delete(s.uploads, id)
	}
	s.noteUploads()
	return err
}

// resolve maps a protocol path into the root. Cleaning the path as a rooted
// one folds every parent reference away ("/../../etc/passwd" is "/etc/passwd",
// under the root), so nothing can climb out; a ".." element surviving that is
// rejected all the same. Only elements are looked at: "run..1.bin" and
// "a..b/c" are ordinary names.
func (s *Server) resolve(p string) (string, error) {
	clean := filepath.Clean("/" + p)
	for _, elem := range strings.Split(clean, string(filepath.Separator)) {
		if elem == ".." {
			return "", fmt.Errorf("gridftp: bad path %q", p)
		}
	}
	return filepath.Join(s.root, clean), nil
}

// serve is the request loop of one session. A peer that sends one request
// and closes is a session of one request.
func (s *Server) serve(ctx context.Context, conn net.Conn) {
	sess := newSession(conn)
	if t := s.tel.Load(); t != nil {
		t.sessions.Inc()
	}
	for {
		_ = sess.SetReadDeadline(time.Now().Add(idleTimeout))
		var req request
		if err := recvJSON(sess, &req); err != nil {
			return
		}
		handle, series := handlers[req.Op], req.Op
		if handle == nil {
			handle, series = (*Server).handleUnknown, "unknown"
		}
		if t := s.tel.Load(); t != nil {
			t.requests[series].Inc()
		}
		if !handle(s, ctx, sess, &req) {
			return
		}
	}
}

// fail answers a header with an error. The session stays usable if the
// answer went out: a refused request has no data phase.
func fail(sess *session, format string, args ...any) bool {
	return sendJSON(sess, response{OK: false, Error: fmt.Sprintf(format, args...)}) == nil
}

// reply answers a header with success.
func reply(sess *session, resp response) bool {
	resp.OK = true
	return sendJSON(sess, resp) == nil
}

// handleUnknown refuses an op the server does not have. The header line was
// consumed whole, so the session is still at a request boundary.
func (s *Server) handleUnknown(_ context.Context, sess *session, req *request) bool {
	return fail(sess, "unknown op %s", req.Op)
}

// checksum is the CRC and length of everything left in f, read through the
// buffer of the session that asked. It gives up when ctx ends (the server
// closes), so that Close does not wait out a pass over a file as large as a
// peer cared to declare.
func checksum(ctx context.Context, sess *session, f *os.File) (crc uint32, n int64, err error) {
	h := crc32.NewIEEE()
	buf := sess.buffer(DefaultBlockSize)
	done := ctx.Done()
	for {
		select {
		case <-done:
			return 0, n, errClosed
		default:
		}
		read, err := f.Read(buf)
		h.Write(buf[:read])
		n += int64(read)
		if err == io.EOF {
			return h.Sum32(), n, nil
		}
		if err != nil {
			return 0, n, err
		}
	}
}

func (s *Server) handleStat(ctx context.Context, sess *session, req *request) bool {
	path, err := s.resolve(req.Path)
	if err != nil {
		return fail(sess, "%v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(sess, "open: %v", err)
	}
	defer f.Close()
	crc, n, err := checksum(ctx, sess, f)
	if err != nil {
		return fail(sess, "read: %v", err)
	}
	return reply(sess, response{Size: n, CRC: crc})
}

func (s *Server) handleGetData(_ context.Context, sess *session, req *request) bool {
	path, err := s.resolve(req.Path)
	if err != nil {
		return fail(sess, "%v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(sess, "open: %v", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fail(sess, "stat: %v", err)
	}
	if req.Offset < 0 || req.Offset > info.Size() {
		return fail(sess, "offset %d out of range", req.Offset)
	}
	length := req.Length
	if rest := info.Size() - req.Offset; length <= 0 || length > rest {
		length = rest
	}
	if _, err := f.Seek(req.Offset, io.SeekStart); err != nil {
		return fail(sess, "seek: %v", err)
	}
	if !reply(sess, response{Size: length}) {
		return false
	}
	// To the raw connection, so a file-to-socket copy stays sendfile.
	n, err := io.CopyN(sess.Conn, f, length)
	if t := s.tel.Load(); t != nil {
		t.bytesOut.Add(n)
	}
	// A range cut short (the file shrank underneath) leaves the peer waiting
	// for bytes that will not come: the session is over.
	return err == nil
}

func (s *Server) handlePutInit(_ context.Context, sess *session, req *request) bool {
	if req.ID == "" || req.Size < 0 || req.Path == "" {
		return fail(sess, "put-init needs id, path, size")
	}
	block := req.Block
	if block <= 0 {
		block = DefaultBlockSize
	}
	if block > maxBlockSize {
		return fail(sess, "block %d exceeds the %d limit", block, maxBlockSize)
	}
	path, err := s.resolve(req.Path)
	if err != nil {
		return fail(sess, "%v", err)
	}
	if path == filepath.Clean(s.root) {
		// "." or "/": the upload's .part file would be the root's sibling.
		return fail(sess, "gridftp: bad path %q", req.Path)
	}
	up, err := s.openUpload(req, path, block)
	if err != nil {
		return fail(sess, "%v", err)
	}
	return reply(sess, response{Received: up.receivedList()})
}

// openUpload returns the upload a put-init names: the open one when the id
// repeats with the same target, size and block (a resume), a new one with its
// .part file created otherwise.
func (s *Server) openUpload(req *request, path string, block int) (*upload, error) {
	tmp := path + ".part"
	s.mu.Lock()
	defer s.mu.Unlock()
	if up, open := s.uploads[req.ID]; open {
		if up.tmp != tmp || up.size != req.Size || up.block != block {
			// Another transfer: it must not be joined to this one's file.
			return nil, fmt.Errorf("transfer %q is already open with a different path, size or block", req.ID)
		}
		return up, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("mkdir: %w", err)
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	if err := f.Truncate(req.Size); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("truncate: %w", err)
	}
	up := &upload{path: req.Path, tmp: tmp, size: req.Size, block: block,
		received: make(map[int]bool), file: f}
	s.uploads[req.ID] = up
	s.noteUploads()
	return up, nil
}

func (u *upload) receivedList() []int {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]int, 0, len(u.received))
	for i := range u.received {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (s *Server) lookupUpload(id string) *upload {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploads[id]
}

func (s *Server) handlePutData(_ context.Context, sess *session, req *request) bool {
	up := s.lookupUpload(req.ID)
	if up == nil {
		return fail(sess, "no upload %q", req.ID)
	}
	if !reply(sess, response{}) {
		return false
	}
	buf := sess.buffer(up.block)
	for {
		_ = sess.SetReadDeadline(time.Now().Add(idleTimeout))
		h, err := readBlockHeader(sess.br)
		if err != nil {
			return false // stream broken mid-flight; restart marker persists
		}
		if h.Length == 0 {
			// End-of-stripe marker: acknowledge so the client knows every
			// block of this stream has been applied before it commits.
			return reply(sess, response{})
		}
		if h.Length < 0 || int(h.Length) > up.block || h.Offset < 0 || h.Offset > up.size-int64(h.Length) {
			return false
		}
		if _, err := io.ReadFull(sess, buf[:h.Length]); err != nil {
			return false
		}
		up.mu.Lock()
		_, err = up.file.WriteAt(buf[:h.Length], h.Offset)
		if err == nil {
			up.received[int(h.Offset/int64(up.block))] = true
		}
		up.mu.Unlock()
		if err != nil {
			return false
		}
		if t := s.tel.Load(); t != nil {
			t.bytesIn.Add(int64(h.Length))
		}
	}
}

func (s *Server) handlePutStatus(_ context.Context, sess *session, req *request) bool {
	up := s.lookupUpload(req.ID)
	if up == nil {
		return fail(sess, "no upload %q", req.ID)
	}
	return reply(sess, response{Received: up.receivedList()})
}

func (s *Server) handlePutCommit(ctx context.Context, sess *session, req *request) bool {
	up := s.lookupUpload(req.ID)
	if up == nil {
		return fail(sess, "no upload %q", req.ID)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	// Completeness: every block present.
	blocks := int((up.size + int64(up.block) - 1) / int64(up.block))
	for i := 0; i < blocks; i++ {
		if !up.received[i] {
			return fail(sess, "incomplete: missing block %d of %d", i, blocks)
		}
	}
	// Integrity: CRC over the assembled file.
	if _, err := up.file.Seek(0, io.SeekStart); err != nil {
		return fail(sess, "seek: %v", err)
	}
	crc, _, err := checksum(ctx, sess, up.file)
	if err != nil {
		return fail(sess, "read: %v", err)
	}
	if crc != req.CRC {
		return fail(sess, "crc mismatch: got %08x want %08x", crc, req.CRC)
	}
	if err := up.file.Close(); err != nil {
		return fail(sess, "close: %v", err)
	}
	final, err := s.resolve(up.path)
	if err != nil {
		return fail(sess, "%v", err)
	}
	if err := os.Rename(up.tmp, final); err != nil {
		return fail(sess, "rename: %v", err)
	}
	s.mu.Lock()
	delete(s.uploads, req.ID)
	s.noteUploads()
	s.mu.Unlock()
	return reply(sess, response{CRC: req.CRC, Size: up.size})
}
