package ogsi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
)

// An OGSI session is one TCP connection per client–container pair that
// carries envelopes as frames (DESIGN.md §5a). The client enters it with
// GET /ogsi, Connection: Upgrade, Upgrade: ogsi-session/1; the container
// answers 101 Switching Protocols and from then on each request envelope is
// one frame and its reply the next frame back, in strict alternation.
//
// A frame is a 6-byte header — a big-endian 2-byte status and 4-byte payload
// length — and the payload. Requests carry status 0; a reply carries 200 and
// an envelope, or an HTTP error status and its error text.
const (
	sessionProtocol = "ogsi-session/1"
	frameHeaderLen  = 6
)

// Frame errors. A session that reads either closes.
var (
	errFrameTooLarge = errors.New("ogsi: frame exceeds 16 MiB")
	errBadFrame      = errors.New("ogsi: request frame with a non-zero status")
)

// switchingProtocols is the container's whole answer to an upgrade.
const switchingProtocols = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + sessionProtocol + "\r\n\r\n"

// appendFrameHeader reserves a frame header at the end of dst; putFrameHeader
// fills it in once the payload behind it is known.
func appendFrameHeader(dst []byte) []byte {
	return append(dst, make([]byte, frameHeaderLen)...)
}

// putFrameHeader writes the header of the frame that frame holds, header
// included.
func putFrameHeader(frame []byte, status int) {
	binary.BigEndian.PutUint16(frame, uint16(status))
	binary.BigEndian.PutUint32(frame[2:], uint32(len(frame)-frameHeaderLen))
}

// readFrameHeader reads one frame header. A length over maxBodyBytes is
// refused before any of the payload is read. A clean end of stream before a
// header is io.EOF.
func readFrameHeader(br *bufio.Reader) (status, n int, err error) {
	h, err := br.Peek(frameHeaderLen)
	if err != nil {
		if len(h) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	status = int(binary.BigEndian.Uint16(h))
	n = int(binary.BigEndian.Uint32(h[2:]))
	_, _ = br.Discard(frameHeaderLen) // peeked: cannot fail
	if n > maxBodyBytes {
		return status, n, errFrameTooLarge
	}
	return status, n, nil
}

// readPayload appends a frame's n-byte payload to dst, which grows with the
// bytes that arrive, never to the length the header claims.
func readPayload(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	for end := len(dst) + n; len(dst) < end; {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		m, err := br.Read(dst[len(dst):min(cap(dst), end)])
		dst = dst[:len(dst)+m]
		if err != nil && len(dst) < end {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	return dst, nil
}

// readFrame reads one frame, appending its payload to dst.
func readFrame(br *bufio.Reader, dst []byte) (status int, payload []byte, err error) {
	status, n, err := readFrameHeader(br)
	if err != nil {
		return status, dst, err
	}
	payload, err = readPayload(br, dst, n)
	return status, payload, err
}

// hasToken reports whether a comma-separated header carries token, in any
// case.
func hasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// ServeHTTP turns GET /ogsi with Upgrade: ogsi-session/1 into a session.
// Anything else — a POST of an envelope included — is answered 426 Upgrade
// Required.
func (c *Container) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if r.Method != http.MethodGet || !ok || !hasToken(r.Header, "Connection", "upgrade") || !hasToken(r.Header, "Upgrade", sessionProtocol) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", sessionProtocol)
		http.Error(w, "ogsi: envelopes travel on an "+sessionProtocol+" session", http.StatusUpgradeRequired)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return // the connection is gone or already taken; nothing to answer on
	}
	if _, err := io.WriteString(conn, switchingProtocols); err != nil {
		_ = conn.Close()
		return
	}
	c.serveSession(conn, brw.Reader)
}

// serverSession is one session the container holds. busy is guarded by the
// container's sessMu: true from a complete request frame until its reply is
// written.
type serverSession struct {
	conn net.Conn
	busy bool
}

// serveSession runs one session on the calling goroutine: read a frame,
// verify and dispatch it, write the reply, until the peer goes, a frame is
// malformed or too long, or Stop drains the container. Dispatch runs under
// the session's context, which ends with the session or when the container
// has stopped.
func (c *Container) serveSession(conn net.Conn, br *bufio.Reader) {
	s := &serverSession{conn: conn}
	if !c.openSession(s) {
		_ = conn.Close()
		return
	}
	ctx, cancel := context.WithCancel(c.base)
	defer func() {
		cancel()
		_ = conn.Close()
		c.closeSession(s)
	}()
	in, out := getBuf(), getBuf()
	defer putBuf(in)
	defer putBuf(out)
	for {
		status, n, err := readFrameHeader(br)
		frame := appendFrameHeader((*out)[:0])
		switch {
		case errors.Is(err, errFrameTooLarge):
			frame, status = append(frame, "ogsi: body exceeds 16 MiB"...), http.StatusRequestEntityTooLarge
		case err != nil:
			return
		case status != 0:
			frame, status = append(frame, errBadFrame.Error()...), http.StatusBadRequest
			err = errBadFrame
		default:
			body, rerr := readPayload(br, (*in)[:0], n)
			*in = body
			if rerr != nil || !c.beginFrame(s) {
				return
			}
			frame, status = c.handle(ctx, frame, body)
		}
		*out = frame
		putFrameHeader(frame, status)
		if _, werr := conn.Write(frame); werr != nil || err != nil || !c.endFrame(s) {
			return
		}
		if cap(*in) > maxPooledBuf || cap(*out) > maxPooledBuf {
			*in, *out = nil, nil // one large frame does not pin its buffers for the session's life
		}
	}
}

// openSession records s; a draining container refuses it.
func (c *Container) openSession(s *serverSession) bool {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.draining {
		return false
	}
	c.sessions[s] = struct{}{}
	tel := c.Telemetry()
	tel.Counter(metricSessionsAccepted).Inc()
	tel.Gauge(metricSessionsOpen).Set(float64(len(c.sessions)))
	return true
}

// closeSession forgets s, and tells a draining Stop when it was the last.
func (c *Container) closeSession(s *serverSession) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	delete(c.sessions, s)
	c.Telemetry().Gauge(metricSessionsOpen).Set(float64(len(c.sessions)))
	if c.draining && len(c.sessions) == 0 {
		close(c.sessGone)
	}
}

// beginFrame marks s busy with a complete request; false means Stop has
// closed it meanwhile and the frame is dropped unanswered.
func (c *Container) beginFrame(s *serverSession) bool {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.draining {
		return false
	}
	s.busy = true
	return true
}

// endFrame marks s idle after its reply; false means the container is
// draining and s closes now.
func (c *Container) endFrame(s *serverSession) bool {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	s.busy = false
	return !c.draining
}

// drainSessions refuses new sessions, closes idle ones and returns a channel
// closed once the busy ones have written their replies and closed.
func (c *Container) drainSessions() <-chan struct{} {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if !c.draining {
		c.draining = true
		c.sessGone = make(chan struct{})
		if len(c.sessions) == 0 {
			close(c.sessGone)
		}
	}
	for s := range c.sessions {
		if !s.busy {
			_ = s.conn.Close()
		}
	}
	return c.sessGone
}

// closeSessions cuts every session still open, busy or not.
func (c *Container) closeSessions() {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	for s := range c.sessions {
		_ = s.conn.Close()
	}
}
