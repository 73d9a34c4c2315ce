package gsi

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Secure Conversation: a security context between one client and one server,
// established once by a handshake that rides inside two signed envelopes and
// then used to authenticate every later message with HMAC-SHA-256 instead of
// an Ed25519 signature (DESIGN.md §5a).
//
//   - The client's first request is a signed envelope whose payload carries an
//     offer: an ephemeral X25519 share and a nonce (Handshake.Offer).
//   - The server verifies that envelope as any other, and answers in its
//     signed reply with an accept: the context ID, its own X25519 share and
//     the context's expiry (ContextTable.Accept). Both signatures therefore
//     cover the whole transcript.
//   - Both sides derive two keys, one per direction, with HKDF-SHA-256 over
//     the X25519 secret, salted with a digest of the transcript and of both
//     identities (Handshake.Complete on the client).
//   - Every later message travels as a MAC'd envelope
//     {"payload":"<b64>","context":"<b64>","seq":N,"mac":"<b64>"}, the MAC
//     taken over direction, context ID, sequence number and payload, each
//     length-prefixed. A reply is bound to its request's sequence number; the
//     server keeps a sliding replay window per context.
//
// A context lives until the earlier of the two chains' validity ends, and dies
// with any change to the trust set (TrustStore.Add). Nothing here knows about
// the carrier: ogsi carries the tokens in its request and response documents
// and the MAC'd envelope as an HTTP body, and any other transport can do the
// same.

// Errors of the MAC'd path. Each is reported before the payload is handed to
// anyone: a refused message never executes.
var (
	// ErrNotSealed: the body is not in the MAC'd envelope layout (it may be a
	// signed envelope; see TrustStore.Open).
	ErrNotSealed = errors.New("gsi: not a MAC'd envelope")
	// ErrBadHandshake: an offer or accept token that does not decode, or an
	// accept that does not answer the offer it claims to.
	ErrBadHandshake   = errors.New("gsi: malformed handshake")
	ErrContextUnknown = errors.New("gsi: unknown security context")
	ErrContextExpired = errors.New("gsi: security context expired")
	ErrContextRevoked = errors.New("gsi: security context revoked by a trust-set change")
	ErrReplay         = errors.New("gsi: sequence number replayed or behind the replay window")
	ErrBadMAC         = errors.New("gsi: message authentication code does not verify")
)

// MaxContexts bounds a ContextTable. A site serves a handful of coordinators
// at a time, each holding one context per container; the least recently used
// context is evicted to make room, and its client re-handshakes once.
const MaxContexts = 1024

const (
	contextIDSize = 16
	shareSize     = 32 // X25519 public key
	nonceSize     = 16
	offerSize     = shareSize + nonceSize
	acceptSize    = contextIDSize + shareSize + 8 // + expiry, Unix nanoseconds
	macSize       = sha256.Size

	// replayWindow is how far behind the highest sequence number seen a
	// request may still arrive. Calls in flight at once on one client
	// overtake each other: a call takes its number before it queues for one
	// of the transport's connections (a pinned transport has two), and a
	// goroutine descheduled in between falls behind every call made
	// meanwhile. The window is (replayBlocks-1)*64 numbers wide.
	replayBlocks = 17
	replayWindow = (replayBlocks - 1) * 64
)

// Directions of a context's traffic. Each has its own key, and the MAC input
// names it as well, so a reply can never be presented as a request.
const (
	dirRequest byte = 1
	dirReply   byte = 2
)

// strict64 rejects the non-canonical trailing bits StdEncoding tolerates: the
// MAC'd envelope has exactly one accepted spelling of every field.
var strict64 = base64.StdEncoding.Strict()

// isBase64 marks the bytes of the standard base64 alphabet and its padding.
// The decoder itself also skips \r and \n, which encoding/json would refuse
// inside a string, so splitSealed checks membership first.
var isBase64 = func() (t [256]bool) {
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=" {
		t[c] = true
	}
	return t
}()

// contextID names a security context on the wire.
type contextID [contextIDSize]byte

// Context is one established security context, on either side. The client
// numbers its requests with NextSeq and seals them; the server opens them
// through its ContextTable and seals its replies under the same number.
type Context struct {
	id     contextID
	peer   string // the other side's Grid identity
	expiry time.Time
	gen    uint64 // trust generation both chains were verified under
	send   *macKey
	recv   *macKey

	seq atomic.Uint64 // client: the last sequence number handed out

	// Server side.
	accept  string        // answered again to a repeat of the same offer
	lastUse atomic.Uint64 // table clock of the last use: eviction order
	mu      sync.Mutex
	highest uint64               // highest sequence number accepted
	seen    [replayBlocks]uint64 // bit n%64 of block n/64%replayBlocks: n was accepted
}

// Peer returns the Grid identity at the other end of the context.
func (c *Context) Peer() string { return c.peer }

// NextSeq returns the sequence number of the next request on the context.
func (c *Context) NextSeq() uint64 { return c.seq.Add(1) }

// Live reports whether the context may still carry traffic at now: inside
// its lifetime, and no trust-set change since it was established.
func (c *Context) Live(now time.Time, ts *TrustStore) bool { return c.live(now, ts) == nil }

func (c *Context) live(now time.Time, ts *TrustStore) error {
	if c.gen != ts.cache.gen.Load() {
		return ErrContextRevoked
	}
	if now.After(c.expiry) {
		return ErrContextExpired
	}
	return nil
}

// The MAC'd envelope layout, exactly as Seal writes it:
//
//	{"payload":"<base64>","context":"<base64 ID>","seq":<decimal>,"mac":"<base64>"}
const (
	sealHead       = `{"payload":"`
	sealContextKey = `","context":"`
	sealSeqKey     = `","seq":`
	sealMACKey     = `,"mac":"`
	sealTail       = `"}`
)

var (
	idLen64  = base64.StdEncoding.EncodedLen(contextIDSize)
	macLen64 = base64.StdEncoding.EncodedLen(macSize)
)

// Seal appends to dst the MAC'd envelope carrying payload as message seq in
// this side's sending direction.
func (c *Context) Seal(dst, payload []byte, seq uint64) []byte {
	var mac [macSize]byte
	c.send.sum(&mac, &c.id, seq, payload)
	return appendSealed(dst, payload, &c.id, seq, &mac)
}

func appendSealed(dst, payload []byte, id *contextID, seq uint64, mac *[macSize]byte) []byte {
	dst = append(dst, sealHead...)
	dst = base64.StdEncoding.AppendEncode(dst, payload)
	dst = append(dst, sealContextKey...)
	dst = base64.StdEncoding.AppendEncode(dst, id[:])
	dst = append(dst, sealSeqKey...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, sealMACKey...)
	dst = base64.StdEncoding.AppendEncode(dst, mac[:])
	return append(dst, sealTail...)
}

// OpenReply verifies the server's reply to request seq and appends its
// payload to dst. ErrNotSealed means the body is not a MAC'd envelope (a
// signed one, when the server refused the context); ErrBadMAC covers a reply
// for another context or another request as well as a forged one.
func (c *Context) OpenReply(dst, body []byte, seq uint64) ([]byte, error) {
	s, ok := splitSealed(body)
	if !ok {
		return nil, ErrNotSealed
	}
	if s.id != c.id || s.seq != seq {
		return nil, ErrBadMAC
	}
	start := len(dst)
	dst, ok = decodePayload(dst, s.payload64)
	if !ok {
		return nil, ErrBadEnvelope
	}
	if !c.recv.verify(&s.mac, &c.id, seq, dst[start:]) {
		return nil, ErrBadMAC
	}
	return dst, nil
}

// admit moves the replay window over seq, refusing a number already seen or
// too far behind the highest one. The bitmap is a ring of 64-bit blocks
// (RFC 6479): advancing clears the blocks the new numbers enter, nothing is
// shifted.
func (c *Context) admit(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq == 0 || c.highest >= seq+replayWindow {
		return false
	}
	if seq > c.highest {
		for b, n := c.highest/64+1, 0; b <= seq/64 && n < replayBlocks; b, n = b+1, n+1 {
			c.seen[b%replayBlocks] = 0
		}
		c.highest = seq
	}
	block, bit := &c.seen[seq/64%replayBlocks], uint64(1)<<(seq%64)
	if *block&bit != 0 {
		return false
	}
	*block |= bit
	return true
}

// Handshake is the client's half of establishing a context: an ephemeral
// X25519 key and a nonce, offered inside a signed request. One handshake may
// be offered by several requests at once (and resent by retries); the server
// answers every copy with the same context.
type Handshake struct {
	priv  *ecdh.PrivateKey
	offer [offerSize]byte
	token string
}

// NewHandshake draws a fresh ephemeral key and nonce.
func NewHandshake() (*Handshake, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: handshake key: %w", err)
	}
	h := &Handshake{priv: priv}
	copy(h.offer[:], priv.PublicKey().Bytes())
	if _, err := rand.Read(h.offer[shareSize:]); err != nil {
		return nil, fmt.Errorf("gsi: handshake nonce: %w", err)
	}
	h.token = base64.StdEncoding.EncodeToString(h.offer[:])
	return h, nil
}

// Offer returns the token to carry in the signed request.
func (h *Handshake) Offer() string { return h.token }

// Complete builds the client's context from the accept token of a reply
// whose signed envelope verified with serverInfo. client is the identity the
// offer was signed under, server the identity that signed the accept. The
// context expires at the accept's expiry or at the end of the server chain's
// validity as this side verified it, whichever is earlier.
func (h *Handshake) Complete(accept, client, server string, serverInfo VerifyInfo) (*Context, error) {
	var a [acceptSize]byte
	if !decodeFixed(a[:], []byte(accept)) {
		return nil, ErrBadHandshake
	}
	id := deriveContextID(client, h.offer[:])
	if !bytes.Equal(a[:contextIDSize], id[:]) {
		return nil, fmt.Errorf("%w: accept answers another offer", ErrBadHandshake)
	}
	share, err := ecdh.X25519().NewPublicKey(a[contextIDSize : contextIDSize+shareSize])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	secret, err := h.priv.ECDH(share)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	expiry := time.Unix(0, int64(binary.BigEndian.Uint64(a[contextIDSize+shareSize:])))
	if serverInfo.notAfter.Before(expiry) {
		expiry = serverInfo.notAfter
	}
	c2s, s2c := deriveKeys(secret, client, server, h.offer[:], a[:])
	return &Context{
		id: id, peer: server, expiry: expiry, gen: serverInfo.gen,
		send: newMACKey(c2s, dirRequest), recv: newMACKey(s2c, dirReply),
	}, nil
}

// ContextTable is a server's set of established contexts, bounded by
// MaxContexts. Safe for concurrent use.
type ContextTable struct {
	trust *TrustStore

	mu      sync.RWMutex
	entries map[contextID]*Context
	clock   atomic.Uint64 // advances on every use: the LRU order
}

// NewContextTable builds an empty table whose contexts die with trust's
// current generation.
func NewContextTable(trust *TrustStore) *ContextTable {
	return &ContextTable{trust: trust, entries: make(map[contextID]*Context)}
}

// Len returns the number of contexts held.
func (t *ContextTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Accept answers an offer carried by a signed request that verified with
// clientInfo as identity client, and returns the accept token for the signed
// reply. self is the server's own credential: its identity enters the key
// schedule and its chain bounds the context's lifetime, together with the
// client chain's. A repeat of an offer whose context is still live — a
// retried or concurrent first request — gets the same accept back, with
// created false.
func (t *ContextTable) Accept(offer, client string, clientInfo VerifyInfo, self *Credential, now time.Time) (accept string, created bool, err error) {
	var o [offerSize]byte
	if !decodeFixed(o[:], []byte(offer)) {
		return "", false, ErrBadHandshake
	}
	share, err := ecdh.X25519().NewPublicKey(o[:shareSize])
	if err != nil {
		return "", false, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if self == nil || self.Leaf() == nil {
		return "", false, ErrBadChain
	}
	id := deriveContextID(client, o[:])
	expiry := clientInfo.notAfter
	for _, cert := range self.Chain {
		if cert.NotAfter.Before(expiry) {
			expiry = cert.NotAfter
		}
	}
	if !expiry.After(now) {
		return "", false, ErrContextExpired
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.entries[id]; c != nil && c.live(now, t.trust) == nil {
		c.lastUse.Store(t.clock.Add(1))
		return c.accept, false, nil
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return "", false, fmt.Errorf("gsi: handshake key: %w", err)
	}
	secret, err := priv.ECDH(share)
	if err != nil {
		return "", false, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	var a [acceptSize]byte
	copy(a[:], id[:])
	copy(a[contextIDSize:], priv.PublicKey().Bytes())
	binary.BigEndian.PutUint64(a[contextIDSize+shareSize:], uint64(expiry.UnixNano()))
	c2s, s2c := deriveKeys(secret, client, self.Identity(), o[:], a[:])
	c := &Context{
		id: id, peer: client, expiry: expiry, gen: clientInfo.gen,
		send: newMACKey(s2c, dirReply), recv: newMACKey(c2s, dirRequest),
		accept: base64.StdEncoding.EncodeToString(a[:]),
	}
	c.lastUse.Store(t.clock.Add(1))
	if t.entries[id] == nil && len(t.entries) >= MaxContexts {
		t.evictLocked()
	}
	t.entries[id] = c
	return c.accept, true, nil
}

// evictLocked drops the least recently used context.
func (t *ContextTable) evictLocked() {
	var victim *Context
	for _, c := range t.entries {
		if victim == nil || c.lastUse.Load() < victim.lastUse.Load() {
			victim = c
		}
	}
	delete(t.entries, victim.id)
}

// Open verifies a MAC'd request and appends its payload to dst, returning the
// context it arrived on and its sequence number, to seal the reply under. The
// checks run in this order and all of them before the payload is returned:
// layout (ErrNotSealed, ErrBadEnvelope), context known (ErrContextUnknown),
// trust generation and lifetime (ErrContextRevoked, ErrContextExpired — the
// context is dropped), MAC (ErrBadMAC), replay window (ErrReplay). The window
// moves only for a message whose MAC verified.
func (t *ContextTable) Open(dst, body []byte, now time.Time) ([]byte, *Context, uint64, error) {
	s, ok := splitSealed(body)
	if !ok {
		return nil, nil, 0, ErrNotSealed
	}
	t.mu.RLock()
	c := t.entries[s.id]
	t.mu.RUnlock()
	if c == nil {
		return nil, nil, 0, ErrContextUnknown
	}
	if err := c.live(now, t.trust); err != nil {
		t.mu.Lock()
		if t.entries[s.id] == c {
			delete(t.entries, s.id)
		}
		t.mu.Unlock()
		return nil, nil, 0, err
	}
	start := len(dst)
	dst, ok = decodePayload(dst, s.payload64)
	if !ok {
		return nil, nil, 0, ErrBadEnvelope
	}
	if !c.recv.verify(&s.mac, &s.id, s.seq, dst[start:]) {
		return nil, nil, 0, ErrBadMAC
	}
	if !c.admit(s.seq) {
		return nil, nil, 0, ErrReplay
	}
	c.lastUse.Store(t.clock.Add(1))
	return dst, c, s.seq, nil
}

// sealed is a MAC'd envelope sliced into its fields.
type sealed struct {
	payload64 []byte
	id        contextID
	seq       uint64
	mac       [macSize]byte
}

// splitSealed slices a body in the MAC'd envelope layout. Anything else —
// another key order, whitespace, escapes, a padded or leading-zero number,
// non-canonical base64 in the fixed-size fields — is not the layout.
func splitSealed(body []byte) (s sealed, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(sealHead))
	if !ok {
		return s, false
	}
	n := 0
	for n < len(rest) && isBase64[rest[n]] {
		n++
	}
	s.payload64 = rest[:n]
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(sealContextKey)); !ok || len(rest) < idLen64 || !decodeFixed(s.id[:], rest[:idLen64]) {
		return s, false
	}
	if rest, ok = bytes.CutPrefix(rest[idLen64:], []byte(sealSeqKey)); !ok {
		return s, false
	}
	// At most 19 digits, so the value cannot overflow.
	n = 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	if n == 0 || n > 19 || rest[0] == '0' {
		return s, false
	}
	for _, d := range rest[:n] {
		s.seq = s.seq*10 + uint64(d-'0')
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(sealMACKey)); !ok || len(rest) != macLen64+len(sealTail) {
		return s, false
	}
	if !decodeFixed(s.mac[:], rest[:macLen64]) || string(rest[macLen64:]) != sealTail {
		return s, false
	}
	return s, true
}

// decodeFixed decodes src, which must be exactly the canonical base64 of
// len(dst) bytes. It decodes into scratch first: text of the right length
// without its padding stands for more bytes than dst holds.
func decodeFixed(dst, src []byte) bool {
	var scratch [3 * acceptSize / 2]byte // room for the longest token's DecodedLen
	if len(src) != base64.StdEncoding.EncodedLen(len(dst)) || strict64.DecodedLen(len(src)) > len(scratch) {
		return false
	}
	for _, c := range src {
		if !isBase64[c] {
			return false
		}
	}
	n, err := strict64.Decode(scratch[:], src)
	if err != nil || n != len(dst) {
		return false
	}
	copy(dst, scratch[:n])
	return true
}

// decodePayload appends the canonical base64 payload64 (already checked to
// hold only alphabet bytes) decoded to dst.
func decodePayload(dst, payload64 []byte) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, make([]byte, strict64.DecodedLen(len(payload64)))...)
	n, err := strict64.Decode(dst[start:], payload64)
	return dst[:start+n], err == nil
}

// macKey is one direction's HMAC-SHA-256 key, with a pool of keyed hashes so
// a message costs no allocation.
type macKey struct {
	dir  byte
	pool sync.Pool // of *macState
}

type macState struct {
	h   hash.Hash
	hdr [4 + 1 + 4 + contextIDSize + 4 + 8 + 4]byte
	sum [macSize]byte
}

func newMACKey(key []byte, dir byte) *macKey {
	k := &macKey{dir: dir}
	k.pool.New = func() any { return &macState{h: hmac.New(sha256.New, key)} }
	return k
}

// sum computes the MAC of message seq of context id: HMAC over direction,
// context ID, sequence number and payload, each prefixed by its length.
func (k *macKey) sum(out *[macSize]byte, id *contextID, seq uint64, payload []byte) {
	st := k.pool.Get().(*macState)
	hdr := st.hdr[:]
	binary.BigEndian.PutUint32(hdr[0:], 1)
	hdr[4] = k.dir
	binary.BigEndian.PutUint32(hdr[5:], contextIDSize)
	copy(hdr[9:], id[:])
	binary.BigEndian.PutUint32(hdr[9+contextIDSize:], 8)
	binary.BigEndian.PutUint64(hdr[13+contextIDSize:], seq)
	binary.BigEndian.PutUint32(hdr[21+contextIDSize:], uint32(len(payload)))
	st.h.Reset()
	st.h.Write(hdr)
	st.h.Write(payload)
	*out = [macSize]byte(st.h.Sum(st.sum[:0]))
	k.pool.Put(st)
}

func (k *macKey) verify(mac *[macSize]byte, id *contextID, seq uint64, payload []byte) bool {
	var want [macSize]byte
	k.sum(&want, id, seq, payload)
	return hmac.Equal(want[:], mac[:])
}

// Labels of the key schedule.
const (
	labelContextID  = "neesgrid gsi context id v1"
	labelTranscript = "neesgrid gsi secure conversation v1"
)

// deriveContextID names the context an offer establishes for client: both
// sides compute it, so a repeat of the offer finds the context it already
// made.
func deriveContextID(client string, offer []byte) contextID {
	h := sha256.New()
	writeField(h, []byte(labelContextID))
	writeField(h, []byte(client))
	writeField(h, offer)
	var id contextID
	copy(id[:], h.Sum(nil))
	return id
}

// deriveKeys is HKDF-SHA-256 (RFC 5869) over the X25519 secret, salted with
// the digest of the transcript — both identities, the offer and the accept —
// expanded into one 32-byte key per direction.
func deriveKeys(secret []byte, client, server string, offer, accept []byte) (c2s, s2c []byte) {
	th := sha256.New()
	for _, f := range [][]byte{[]byte(labelTranscript), []byte(client), []byte(server), offer, accept} {
		writeField(th, f)
	}
	prk := hmacSHA256(th.Sum(nil), secret)
	return hmacSHA256(prk, []byte("c2s\x01")), hmacSHA256(prk, []byte("s2c\x01"))
}

func hmacSHA256(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// writeField writes b to h prefixed by its length.
func writeField(h hash.Hash, b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	h.Write(n[:])
	h.Write(b)
}
