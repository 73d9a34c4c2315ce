package gsi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The TestOpenWire* tests open encoded envelopes as they arrive off the wire
// — bytes in, decoded with encoding/json, verified by OpenInfo — and hold the
// chain cache behind that path to the same verdicts as a store without it.

// uncachedStore is a trust store for the same CA with the chain cache off:
// the reference every cached open must agree with.
func uncachedStore(ca *Authority) *TrustStore {
	ts := NewTrustStore(ca.Cert)
	ts.SetCacheCapacity(0)
	return ts
}

func TestOpenWireExpiryServedAsMissAndEvicted(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(5 * time.Minute) // shortest window in the chain
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	body := seal(t, proxy, []byte("x"))

	if _, _, _, err := openBody(ts, body, now); err != nil {
		t.Fatal(err)
	}
	if cacheEntries(ts) != 1 {
		t.Fatalf("cache holds %d entries after one open", cacheEntries(ts))
	}
	// Same bytes, same digest — but past the proxy's expiry, though inside
	// the identity certificate's and the CA's. The entry must not be served,
	// and the full path must name the reason.
	_, _, info, err := openBody(ts, body, now.Add(10*time.Minute))
	if !errors.Is(err, ErrExpired) || info.CacheHit {
		t.Fatalf("past expiry: err = %v, info %+v", err, info)
	}
	if cacheEntries(ts) != 0 {
		t.Fatal("expired entry not evicted")
	}
	// Nothing was poisoned: back inside the window the chain verifies again.
	if _, _, _, err := openBody(ts, body, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWireTamperRejected(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	payload := []byte(`{"op":"execute","name":"step-7"}`)
	body := seal(t, cred, payload)
	if _, _, _, err := openBody(ts, body, now); err != nil {
		t.Fatal(err)
	}
	// index returns where field starts in body; every field is unique there.
	index := func(field string) int {
		i := bytes.Index(body, []byte(field))
		if i < 0 || bytes.Index(body[i+1:], []byte(field)) >= 0 {
			t.Fatalf("%q is not in the envelope exactly once", field)
		}
		return i
	}
	chain := index(`"chain":`)
	subject := index("alice")
	leafSig := index(base64.StdEncoding.EncodeToString(cred.Leaf().Signature))
	payload64 := index(base64.StdEncoding.EncodeToString(payload))
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	sig64 := index(base64.StdEncoding.EncodeToString(env.Signature))
	if subject < chain || leafSig < chain {
		t.Fatal("leaf subject or signature found outside the chain")
	}

	// flip replaces body[i] with another byte of the same alphabet, so the
	// envelope still decodes and only the content changes.
	flip := func(i int) []byte {
		out := append([]byte(nil), body...)
		if out[i] == 'A' {
			out[i] = 'B'
		} else {
			out[i] = 'A'
		}
		return out
	}
	for name, tc := range map[string]struct {
		body []byte
		want error
	}{
		"chain byte (subject)":   {flip(subject), ErrBadSignature},
		"chain byte (signature)": {flip(leafSig + 10), ErrBadSignature},
		"payload byte":           {flip(payload64 + 3), ErrBadSignature},
		"signature byte":         {flip(sig64 + 3), ErrBadSignature},
	} {
		hitsBefore, _ := ts.CacheStats()
		_, _, _, err := openBody(ts, tc.body, now)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if hits, _ := ts.CacheStats(); bytes.Contains([]byte(name), []byte("chain")) && hits != hitsBefore {
			t.Errorf("%s: tampered chain produced a cache hit", name)
		}
		// And a store without the cache agrees.
		if _, _, _, ref := openBody(uncachedStore(ca), tc.body, now); errClass(ref) != errClass(err) {
			t.Errorf("%s: cached %v, uncached %v", name, err, ref)
		}
	}
	// A failure is never cached: only the one good chain is remembered, and
	// the untampered body still opens, from the cache.
	if cacheEntries(ts) != 1 {
		t.Fatalf("cache holds %d entries", cacheEntries(ts))
	}
	if _, _, info, err := openBody(ts, body, now); err != nil || !info.CacheHit {
		t.Fatalf("untampered body after tamper attempts: %+v %v", info, err)
	}
}

func TestOpenWireFlushedOnCARotation(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	body := seal(t, cred, []byte("x"))
	for i := 0; i < 2; i++ {
		if _, _, _, err := openBody(ts, body, now); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := ts.CacheStats(); hits != 1 {
		t.Fatalf("hits=%d, want 1", hits)
	}
	// Rotate the CA: same subject, new key. The envelope's chain was signed
	// by the old key; the entry from before the rotation must not be served.
	rotated, err := NewAuthority(ca.Name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(rotated.Cert)
	if _, _, info, err := openBody(ts, body, now); !errors.Is(err, ErrBadSignature) || info.CacheHit {
		t.Fatalf("chain signed by rotated-away CA key: err = %v, info %+v", err, info)
	}
	fresh, _ := rotated.Issue("/O=NEES/CN=alice", time.Hour)
	if _, id, _, err := openBody(ts, seal(t, fresh, []byte("x")), now); err != nil || id != "/O=NEES/CN=alice" {
		t.Fatalf("credential of the rotated CA: %q %v", id, err)
	}
}

func TestOpenWireCacheDisabled(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := uncachedStore(ca)
	body := seal(t, cred, []byte("x"))
	for i := 0; i < 3; i++ {
		got, _, info, err := openBody(ts, body, time.Now())
		if err != nil || string(got) != "x" || info.CacheHit {
			t.Fatalf("open %d: %q %+v %v", i, got, info, err)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 0 || misses != 0 || cacheEntries(ts) != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d entries=%d", hits, misses, cacheEntries(ts))
	}
}

func TestOpenWireNeverCachesFailures(t *testing.T) {
	ca := newTestCA(t)
	rogueCA, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	rogue, _ := rogueCA.Issue("/O=Rogue/CN=mallory", time.Hour)
	ts := NewTrustStore(ca.Cert)
	body := seal(t, rogue, []byte("x"))
	for i := 0; i < 3; i++ {
		if _, _, _, err := openBody(ts, body, time.Now()); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("attempt %d: err = %v, want ErrUntrusted", i, err)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 0 || misses != 3 || cacheEntries(ts) != 0 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0/3/0", hits, misses, cacheEntries(ts))
	}
}

// TestOpenWireConcurrent drives many goroutines through the encoded open path
// on one trust store — valid, expired and untrusted envelopes, each goroutine
// decoding its own copy — and is meaningful under -race.
func TestOpenWireConcurrent(t *testing.T) {
	ca := newTestCA(t)
	ts := NewTrustStore(ca.Cert)
	good, _ := ca.Issue("/O=NEES/CN=good", time.Hour)
	short, _ := ca.Issue("/O=NEES/CN=short", 10*time.Minute)
	rogueCA, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	rogue, _ := rogueCA.Issue("/O=Rogue/CN=mallory", time.Hour)

	payload := []byte(`{"op":"propose"}`)
	goodBody, shortBody, rogueBody := seal(t, good, payload), seal(t, short, payload), seal(t, rogue, payload)
	now := time.Now()
	late := now.Add(30 * time.Minute) // short is expired, good is not

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, id, _, err := openBody(ts, goodBody, now)
				if err != nil || id != "/O=NEES/CN=good" || !bytes.Equal(got, payload) {
					t.Errorf("good envelope: %q id=%q err=%v", got, id, err)
					return
				}
				if _, _, _, err := openBody(ts, shortBody, late); !errors.Is(err, ErrExpired) {
					t.Errorf("expired envelope: err=%v", err)
					return
				}
				if _, _, _, err := openBody(ts, rogueBody, now); !errors.Is(err, ErrUntrusted) {
					t.Errorf("rogue envelope: err=%v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits, misses := ts.CacheStats(); hits == 0 {
		t.Fatalf("no cache hits across concurrent opens (misses=%d)", misses)
	}
}

// TestOpenWireNonCanonicalFallsBack: every envelope encoding/json accepts is
// accepted, whatever its layout, and every layout of one chain shares one
// cache entry, keyed by the chain's content.
func TestOpenWireNonCanonicalFallsBack(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	payload := []byte(`{"op":"propose"}`)
	body := seal(t, cred, payload)

	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	chain, _ := json.Marshal(env.Chain)
	payload64 := base64.StdEncoding.EncodeToString(env.Payload)
	sig64 := base64.StdEncoding.EncodeToString(env.Signature)
	indented, _ := json.MarshalIndent(&env, "", "  ")
	variants := map[string][]byte{
		"canonical":       body,
		"indented":        indented,
		"trailing space":  append(append([]byte(nil), body...), '\n'),
		"reordered keys":  []byte(fmt.Sprintf(`{"chain":%s,"signature":"%s","payload":"%s"}`, chain, sig64, payload64)),
		"extra key":       []byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"signature":"%s","v":1}`, payload64, chain, sig64)),
		"escaped base64":  []byte(fmt.Sprintf(`{"payload":"\u00%x%s","chain":%s,"signature":"%s"}`, payload64[0], payload64[1:], chain, sig64)),
		"duplicate chain": []byte(fmt.Sprintf(`{"payload":"%s","chain":[],"chain":%s,"signature":"%s"}`, payload64, chain, sig64)),
	}
	for name, v := range variants {
		got, id, _, err := openBody(ts, v, now)
		if err != nil || !bytes.Equal(got, payload) || id != "/O=NEES/CN=alice" {
			t.Errorf("%s: %q %q %v", name, got, id, err)
		}
	}
	if cacheEntries(ts) != 1 { // one chain, one content digest
		t.Fatalf("cache holds %d entries", cacheEntries(ts))
	}
	if hits, misses := ts.CacheStats(); hits != uint64(len(variants)-1) || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, len(variants)-1)
	}

	// "payload":null is what a nil payload encodes as.
	if got, _, _, err := openBody(ts, seal(t, cred, nil), now); err != nil || len(got) != 0 {
		t.Fatalf("nil payload: %q %v", got, err)
	}

	// A second "payload" key smuggled in behind the chain: encoding/json
	// reads the last one, so that is the one whose signature counts — the
	// envelope was signed over the first and must fail, cached or not.
	smuggled := []byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"payload":"%s","signature":"%s"}`,
		payload64, chain, base64.StdEncoding.EncodeToString([]byte(`{"op":"cancel"}`)), sig64))
	_, _, _, err := openBody(ts, smuggled, now)
	_, _, _, ref := openBody(uncachedStore(ca), smuggled, now)
	if !errors.Is(err, ErrBadSignature) || !errors.Is(ref, ErrBadSignature) {
		t.Fatalf("smuggled payload: cached %v, uncached %v", err, ref)
	}

	// Not an envelope at all: each fails, and the same way without the cache.
	for _, junk := range []string{``, `{`, `[]`, `"x"`, `{"payload":"!!","chain":[],"signature":""}`} {
		_, _, info, err := openBody(ts, []byte(junk), now)
		_, _, _, ref := openBody(uncachedStore(ca), []byte(junk), now)
		if err == nil || errClass(err) != errClass(ref) || info.CacheHit {
			t.Errorf("%q: cached %v (info %+v), uncached %v", junk, err, info, ref)
		}
	}
}
