package gsi

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultChainCacheCapacity bounds the verified-chain cache of a TrustStore.
// Grid deployments present a handful of long-lived credential chains (one
// per site plus delegated proxies), so a few hundred entries cover even a
// large virtual organization.
const DefaultChainCacheCapacity = 256

// validityWindow is the intersection of certificate validity windows along
// a chain: the interval during which a cached verification verdict may be
// served without re-checking expiry per certificate.
type validityWindow struct {
	notBefore time.Time
	notAfter  time.Time
	set       bool
}

func (w *validityWindow) intersect(nb, na time.Time) {
	if !w.set {
		w.notBefore, w.notAfter, w.set = nb, na, true
		return
	}
	if nb.After(w.notBefore) {
		w.notBefore = nb
	}
	if na.Before(w.notAfter) {
		w.notAfter = na
	}
}

func (w *validityWindow) contains(now time.Time) bool {
	return w.set && !now.Before(w.notBefore) && !now.After(w.notAfter)
}

// chainCacheEntry is one fully verified chain: its base identity and the
// window during which every certificate in the chain (and its CA) remains
// valid.
type chainCacheEntry struct {
	identity string
	window   validityWindow
	gen      uint64 // trust generation the chain was verified under
}

// chainCache remembers verified chains by the digest of their content. Safety
// argument: a hit requires the presented chain to hash (SHA-256 over every
// field of every certificate, signatures included) to the digest of a chain
// that previously passed the full cryptographic path, and requires `now` to
// fall inside the chain's validity intersection. Tampering with any field
// changes the digest; expiry falls out of the window check; unknown chains
// miss. Negative results are never cached, so a failed verification never
// shadows a later legitimate one.
type chainCache struct {
	mu       sync.RWMutex
	entries  map[[sha256.Size]byte]chainCacheEntry
	capacity int
	// gen is the trust generation: bumped by flush under mu, read freely.
	// store refuses a verdict from an older generation, so a verification
	// that raced a TrustStore.Add cannot re-populate the flushed cache.
	gen atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

// digest hashes the chain content. The encoding is injective: every
// variable-length field is length-prefixed and each certificate is framed,
// so no two distinct chains share an encoding. Returns false when caching
// is disabled.
func (cc *chainCache) digest(chain []*Certificate) ([sha256.Size]byte, bool) {
	if !cc.enabled() {
		return [sha256.Size]byte{}, false
	}
	h := sha256.New()
	var scratch [8]byte
	writeBytes := func(b []byte) {
		binary.BigEndian.PutUint64(scratch[:], uint64(len(b)))
		h.Write(scratch[:])
		h.Write(b)
	}
	writeTime := func(t time.Time) {
		binary.BigEndian.PutUint64(scratch[:], uint64(t.UnixNano()))
		h.Write(scratch[:])
	}
	binary.BigEndian.PutUint64(scratch[:], uint64(len(chain)))
	h.Write(scratch[:])
	for _, c := range chain {
		writeBytes([]byte(c.Subject))
		writeBytes([]byte(c.Issuer))
		writeBytes(c.PublicKey)
		writeTime(c.NotBefore)
		writeTime(c.NotAfter)
		var flags byte
		if c.IsCA {
			flags |= 1
		}
		if c.IsProxy {
			flags |= 2
		}
		h.Write([]byte{flags})
		writeBytes(c.Signature)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key, true
}

func (cc *chainCache) enabled() bool {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.capacity > 0
}

// lookup serves a cached verdict when the digest is known and now falls in
// the chain's validity window. An expired entry is treated as a miss (and
// evicted) so the slow path produces the precise error.
func (cc *chainCache) lookup(key [sha256.Size]byte, now time.Time) (chainCacheEntry, bool) {
	cc.mu.RLock()
	e, ok := cc.entries[key]
	cc.mu.RUnlock()
	if ok && e.window.contains(now) {
		cc.hits.Add(1)
		return e, true
	}
	if ok {
		// Outside the window: the entry can never be served again once the
		// chain has expired; drop it to free the slot.
		cc.mu.Lock()
		if e2, still := cc.entries[key]; still && !e2.window.contains(now) {
			delete(cc.entries, key)
		}
		cc.mu.Unlock()
	}
	cc.misses.Add(1)
	return chainCacheEntry{}, false
}

// store records a verified chain, evicting an arbitrary entry at capacity. A
// verdict computed under an older trust generation is dropped.
func (cc *chainCache) store(key [sha256.Size]byte, e chainCacheEntry) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.capacity <= 0 || e.gen != cc.gen.Load() {
		return
	}
	if cc.entries == nil {
		cc.entries = make(map[[sha256.Size]byte]chainCacheEntry, cc.capacity)
	}
	if _, exists := cc.entries[key]; !exists && len(cc.entries) >= cc.capacity {
		for k := range cc.entries {
			delete(cc.entries, k)
			break
		}
	}
	cc.entries[key] = e
}

// flush drops every cached verdict and starts a new trust generation. Called
// when the trust set changes (TrustStore.Add): cached identities were
// verified against the previous CA set and must not outlive it — in
// particular a chain signed by a rotated CA key must re-verify (and fail)
// rather than be served from cache.
func (cc *chainCache) flush() {
	cc.mu.Lock()
	cc.entries = nil
	cc.gen.Add(1)
	cc.mu.Unlock()
}

// SetCacheCapacity resizes the verified-chain cache; n <= 0 disables it and
// clears any cached verdicts. Existing entries are kept when they still fit.
func (ts *TrustStore) SetCacheCapacity(n int) {
	ts.cache.mu.Lock()
	defer ts.cache.mu.Unlock()
	ts.cache.capacity = n
	if n <= 0 {
		ts.cache.entries = nil
		return
	}
	for key := range ts.cache.entries {
		if len(ts.cache.entries) <= n {
			break
		}
		delete(ts.cache.entries, key)
	}
}

// CacheStats returns how many chain verifications were served from the
// cache versus took the full cryptographic path.
func (ts *TrustStore) CacheStats() (hits, misses uint64) {
	return ts.cache.hits.Load(), ts.cache.misses.Load()
}
