package gridftp

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Server serves files under a root directory.
type Server struct {
	root string

	mu      sync.Mutex
	ln      net.Listener
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

// NewServer serves the given root directory (created if missing).
func NewServer(root string) (*Server, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("gridftp: root: %w", err)
	}
	return &Server{root: root, uploads: make(map[string]*upload)}, nil
}

// Start listens on addr; returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gridftp: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
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

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	var req request
	if err := recvJSON(conn, &req); err != nil {
		return
	}
	switch req.Op {
	case "stat":
		s.handleStat(conn, &req)
	case "get-data":
		s.handleGetData(conn, &req)
	case "put-init":
		s.handlePutInit(conn, &req)
	case "put-data":
		s.handlePutData(conn, &req)
	case "put-status":
		s.handlePutStatus(conn, &req)
	case "put-commit":
		s.handlePutCommit(conn, &req)
	case "fxp":
		s.handleFXP(conn, &req)
	default:
		_ = sendJSON(conn, response{OK: false, Error: "unknown op " + req.Op})
	}
}

func fail(conn net.Conn, format string, args ...any) {
	_ = sendJSON(conn, response{OK: false, Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleStat(conn net.Conn, req *request) {
	path, err := s.resolve(req.Path)
	if err != nil {
		fail(conn, "%v", err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		fail(conn, "open: %v", err)
		return
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		fail(conn, "read: %v", err)
		return
	}
	_ = sendJSON(conn, response{OK: true, Size: n, CRC: h.Sum32()})
}

func (s *Server) handleGetData(conn net.Conn, req *request) {
	path, err := s.resolve(req.Path)
	if err != nil {
		fail(conn, "%v", err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		fail(conn, "open: %v", err)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		fail(conn, "stat: %v", err)
		return
	}
	length := req.Length
	if length <= 0 || req.Offset+length > info.Size() {
		length = info.Size() - req.Offset
	}
	if req.Offset < 0 || req.Offset > info.Size() {
		fail(conn, "offset %d out of range", req.Offset)
		return
	}
	if err := sendJSON(conn, response{OK: true, Size: length}); err != nil {
		return
	}
	if _, err := f.Seek(req.Offset, io.SeekStart); err != nil {
		return
	}
	_, _ = io.CopyN(conn, f, length)
}

func (s *Server) handlePutInit(conn net.Conn, req *request) {
	if req.ID == "" || req.Size < 0 || req.Path == "" {
		fail(conn, "put-init needs id, path, size")
		return
	}
	block := req.Block
	if block <= 0 {
		block = DefaultBlockSize
	}
	path, err := s.resolve(req.Path)
	if err != nil {
		fail(conn, "%v", err)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fail(conn, "mkdir: %v", err)
		return
	}
	s.mu.Lock()
	up, exists := s.uploads[req.ID]
	if !exists {
		tmp := path + ".part"
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			s.mu.Unlock()
			fail(conn, "create: %v", err)
			return
		}
		if err := f.Truncate(req.Size); err != nil {
			s.mu.Unlock()
			_ = f.Close()
			fail(conn, "truncate: %v", err)
			return
		}
		up = &upload{path: req.Path, tmp: tmp, size: req.Size, block: block,
			received: make(map[int]bool), file: f}
		s.uploads[req.ID] = up
	}
	s.mu.Unlock()
	_ = sendJSON(conn, response{OK: true, Received: up.receivedList()})
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

func (s *Server) handlePutData(conn net.Conn, req *request) {
	up := s.lookupUpload(req.ID)
	if up == nil {
		fail(conn, "no upload %q", req.ID)
		return
	}
	if err := sendJSON(conn, response{OK: true}); err != nil {
		return
	}
	buf := make([]byte, up.block)
	for {
		h, err := readBlockHeader(conn)
		if err != nil {
			return // stream broken mid-flight; restart marker persists
		}
		if h.Length == 0 {
			// End-of-stripe marker: acknowledge so the client knows every
			// block of this stream has been applied before it commits.
			_ = sendJSON(conn, response{OK: true})
			return
		}
		if h.Length < 0 || int(h.Length) > up.block || h.Offset < 0 || h.Offset+int64(h.Length) > up.size {
			return
		}
		if _, err := io.ReadFull(conn, buf[:h.Length]); err != nil {
			return
		}
		up.mu.Lock()
		if _, err := up.file.WriteAt(buf[:h.Length], h.Offset); err != nil {
			up.mu.Unlock()
			return
		}
		up.received[int(h.Offset/int64(up.block))] = true
		up.mu.Unlock()
	}
}

func (s *Server) handlePutStatus(conn net.Conn, req *request) {
	up := s.lookupUpload(req.ID)
	if up == nil {
		fail(conn, "no upload %q", req.ID)
		return
	}
	_ = sendJSON(conn, response{OK: true, Received: up.receivedList()})
}

func (s *Server) handlePutCommit(conn net.Conn, req *request) {
	up := s.lookupUpload(req.ID)
	if up == nil {
		fail(conn, "no upload %q", req.ID)
		return
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	// Completeness: every block present.
	blocks := int((up.size + int64(up.block) - 1) / int64(up.block))
	for i := 0; i < blocks; i++ {
		if !up.received[i] {
			fail(conn, "incomplete: missing block %d of %d", i, blocks)
			return
		}
	}
	// Integrity: CRC over the assembled file.
	if _, err := up.file.Seek(0, io.SeekStart); err != nil {
		fail(conn, "seek: %v", err)
		return
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, up.file); err != nil {
		fail(conn, "read: %v", err)
		return
	}
	if h.Sum32() != req.CRC {
		fail(conn, "crc mismatch: got %08x want %08x", h.Sum32(), req.CRC)
		return
	}
	if err := up.file.Close(); err != nil {
		fail(conn, "close: %v", err)
		return
	}
	final, err := s.resolve(up.path)
	if err != nil {
		fail(conn, "%v", err)
		return
	}
	if err := os.Rename(up.tmp, final); err != nil {
		fail(conn, "rename: %v", err)
		return
	}
	s.mu.Lock()
	id := req.ID
	delete(s.uploads, id)
	s.mu.Unlock()
	_ = sendJSON(conn, response{OK: true, CRC: req.CRC, Size: up.size})
}

// handleFXP implements third-party transfer: this server pushes one of its
// files to another GridFTP server.
func (s *Server) handleFXP(conn net.Conn, req *request) {
	src, err := s.resolve(req.Path)
	if err != nil {
		fail(conn, "%v", err)
		return
	}
	cl := &Client{Addr: req.DstAddr}
	if err := cl.Put(src, req.DstPath, 2); err != nil {
		fail(conn, "fxp: %v", err)
		return
	}
	_ = sendJSON(conn, response{OK: true})
}
