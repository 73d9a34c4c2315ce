package gsi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func cacheEntries(ts *TrustStore) int {
	ts.cache.mu.RLock()
	defer ts.cache.mu.RUnlock()
	return len(ts.cache.entries)
}

func TestChainCacheHitServesSameIdentity(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	proxy, _ := cred.Delegate(30 * time.Minute)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	id1, err := ts.VerifyChain(proxy.Chain, now)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ts.VerifyChain(proxy.Chain, now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 || id1 != "/O=NEES/CN=coordinator" {
		t.Fatalf("identities %q, %q", id1, id2)
	}
	hits, misses := ts.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestChainCacheRespectsExpiryAfterCaching(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", 10*time.Minute)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
		t.Fatal(err)
	}
	// Same digest, same chain — but past the leaf's expiry. The cached entry
	// must not be served.
	_, err := ts.VerifyChain(cred.Chain, now.Add(time.Hour))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	// And the expired presentation must not have poisoned anything: back
	// inside the window the chain verifies again.
	if _, err := ts.VerifyChain(cred.Chain, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestChainCacheWindowClampedToProxyExpiry(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(5 * time.Minute) // shortest cert in the chain
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	if _, err := ts.VerifyChain(proxy.Chain, now); err != nil {
		t.Fatal(err)
	}
	if n := cacheEntries(ts); n != 1 {
		t.Fatalf("cache holds %d entries after one verification", n)
	}
	// 10 minutes out the proxy is expired even though identity cert and CA
	// are fine; a cached verdict must not outlive the shortest window, and
	// the entry that can never be served again is dropped.
	if _, err := ts.VerifyChain(proxy.Chain, now.Add(10*time.Minute)); !errors.Is(err, ErrExpired) {
		t.Fatalf("err past proxy expiry = %v, want ErrExpired", err)
	}
	if n := cacheEntries(ts); n != 0 {
		t.Fatalf("expired entry not evicted (%d held)", n)
	}
}

func TestChainCacheTamperAfterCachingFails(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
		t.Fatal(err)
	}
	// In-place tamper of the very certificate that was just verified and
	// cached: the digest changes, the cache misses, and the slow path
	// rejects the signature.
	cred.Leaf().Subject = "/O=NEES/CN=admin"
	if _, err := ts.VerifyChain(cred.Chain, now); err == nil {
		t.Fatal("tampered chain verified after a valid entry was cached")
	}
	hits, _ := ts.CacheStats()
	if hits != 0 {
		t.Fatalf("tampered chain produced a cache hit (hits=%d)", hits)
	}
}

func TestChainCacheTamperedSignatureMisses(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
		t.Fatal(err)
	}
	cred.Leaf().Signature[0] ^= 0xff
	if _, err := ts.VerifyChain(cred.Chain, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestChainCacheNeverCachesFailures(t *testing.T) {
	ca := newTestCA(t)
	rogue, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	cred, _ := rogue.Issue("/O=Rogue/CN=mallory", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := ts.VerifyChain(cred.Chain, now); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("attempt %d: err = %v, want ErrUntrusted", i, err)
		}
	}
	hits, misses := ts.CacheStats()
	if hits != 0 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3", hits, misses)
	}
}

func TestChainCacheFlushedOnCARotation(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	// Warm the cache and prove a hit is being served.
	if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
		t.Fatal(err)
	}
	if hits, _ := ts.CacheStats(); hits != 1 {
		t.Fatalf("hits=%d, want 1", hits)
	}

	// Rotate the CA: same subject, new key. The chain signed by the old key
	// must now fail verification — a cached verdict from before the rotation
	// must not be served.
	rotated, err := NewAuthority(ca.Name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(rotated.Cert)
	if _, err := ts.VerifyChain(cred.Chain, now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("chain signed by rotated-away CA key: err = %v, want ErrBadSignature", err)
	}

	// A credential from the rotated CA verifies (and re-populates the cache).
	fresh, _ := rotated.Issue("/O=NEES/CN=alice", time.Hour)
	if _, err := ts.VerifyChain(fresh.Chain, now); err != nil {
		t.Fatal(err)
	}
}

func TestChainCacheDisabled(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	ts.SetCacheCapacity(0)
	now := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := ts.CacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d", hits, misses)
	}
}

func TestChainCacheEvictionAtCapacity(t *testing.T) {
	ca := newTestCA(t)
	ts := NewTrustStore(ca.Cert)
	ts.SetCacheCapacity(2)
	now := time.Now()
	for i := 0; i < 5; i++ {
		cred, _ := ca.Issue(fmt.Sprintf("/O=NEES/CN=site-%d", i), time.Hour)
		if _, err := ts.VerifyChain(cred.Chain, now); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheEntries(ts); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestChainCacheConcurrentOpen drives many goroutines through Open on the
// same trust store — a mix of valid, expired, and tampered envelopes — and
// is meaningful under -race.
func TestChainCacheConcurrentOpen(t *testing.T) {
	ca := newTestCA(t)
	ts := NewTrustStore(ca.Cert)
	good, _ := ca.Issue("/O=NEES/CN=good", time.Hour)
	short, _ := ca.Issue("/O=NEES/CN=short", 10*time.Minute)
	rogueCA, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	rogue, _ := rogueCA.Issue("/O=Rogue/CN=mallory", time.Hour)

	payload := []byte(`{"op":"propose"}`)
	goodEnv, _ := Sign(good, payload)
	shortEnv, _ := Sign(short, payload)
	rogueEnv, _ := Sign(rogue, payload)
	now := time.Now()
	late := now.Add(30 * time.Minute) // short is expired, good is not

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, id, err := ts.Open(goodEnv, now); err != nil || id != "/O=NEES/CN=good" {
					t.Errorf("good envelope: id=%q err=%v", id, err)
					return
				}
				if _, _, err := ts.Open(shortEnv, late); !errors.Is(err, ErrExpired) {
					t.Errorf("expired envelope: err=%v", err)
					return
				}
				if _, _, err := ts.Open(rogueEnv, now); !errors.Is(err, ErrUntrusted) {
					t.Errorf("rogue envelope: err=%v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := ts.CacheStats()
	if hits == 0 {
		t.Fatalf("no cache hits across concurrent Opens (misses=%d)", misses)
	}
}

func TestAppendSignedEnvelopeRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(30 * time.Minute)
	payload := []byte(`{"service":"ntcp","op":"propose","n":1}`)

	enc, err := AppendSignedEnvelope(nil, proxy, payload)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(enc, &env); err != nil {
		t.Fatalf("append-encoded envelope does not parse: %v\n%s", err, enc)
	}
	ts := NewTrustStore(ca.Cert)
	got, id, err := ts.Open(&env, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || id != "/O=NEES/CN=alice" {
		t.Fatalf("payload=%q id=%q", got, id)
	}

	// Byte-compatibility with the reflective path.
	ref, err := Sign(proxy, payload)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, refJSON) {
		t.Fatalf("append encoding differs from json.Marshal:\n%s\n%s", enc, refJSON)
	}
}

func TestAppendSignedEnvelopePayloadEdgeCases(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	// json.Marshal encodes a nil []byte payload as null and an empty non-nil
	// one as ""; the append path must match both byte-for-byte.
	for _, payload := range [][]byte{nil, {}} {
		enc, err := AppendSignedEnvelope(nil, cred, payload)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Sign(cred, payload)
		if err != nil {
			t.Fatal(err)
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, refJSON) {
			t.Fatalf("payload %#v: append encoding differs from json.Marshal:\n%s\n%s", payload, enc, refJSON)
		}
		var env Envelope
		if err := json.Unmarshal(enc, &env); err != nil {
			t.Fatal(err)
		}
		ts := NewTrustStore(ca.Cert)
		if _, _, err := ts.Open(&env, time.Now()); err != nil {
			t.Fatalf("payload %#v: %v", payload, err)
		}
	}
}

// TestOpenInfoReportsCacheHit: opening the same encoded envelope again is
// served from the cache, and VerifyInfo says so (the cached= span attribute).
func TestOpenInfoReportsCacheHit(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	proxy, _ := cred.Delegate(30 * time.Minute)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	for i, want := range []bool{false, true, true} {
		payload := []byte(fmt.Sprintf(`{"op":"propose","n":%d}`, i))
		got, id, info, err := openBody(ts, seal(t, proxy, payload), now)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) || id != "/O=NEES/CN=coordinator" || info.CacheHit != want {
			t.Fatalf("open %d: payload %q identity %q hit %v, want hit %v", i, got, id, info.CacheHit, want)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// TestOpenLargePayload: a payload far larger than anything the handshake
// sends opens the same way, cold and from the cache.
func TestOpenLargePayload(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	body := seal(t, cred, payload)
	for i := 0; i < 2; i++ {
		got, _, info, err := openBody(ts, body, time.Now())
		if err != nil || !bytes.Equal(got, payload) || info.CacheHit != (i == 1) {
			t.Fatalf("open %d: %d bytes, info %+v, err %v", i, len(got), info, err)
		}
	}
}

// VerifyChain validates a leaf-first chain at time now: every certificate
// in its validity window, every signature valid under its issuer's key,
// proxy subjects extending their issuer's subject, and the topmost
// certificate issued by a trusted CA. It returns the base identity of the
// chain.
//
// A chain that already verified is remembered by content digest; a repeat
// presentation of the byte-identical chain is served from the cache while
// every certificate in it (and its CA) is still within its validity window.
// Any difference in content — a tampered field, a different signature, an
// unknown chain — changes the digest and takes the full slow path.
func (ts *TrustStore) VerifyChain(chain []*Certificate, now time.Time) (string, error) {
	identity, _, err := ts.verifyChainInfo(chain, now)
	return identity, err
}
