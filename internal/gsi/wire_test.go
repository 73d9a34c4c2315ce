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

// seal returns the wire form of payload signed by cred.
func seal(t testing.TB, cred *Credential, payload []byte) []byte {
	t.Helper()
	body, err := AppendSignedEnvelope(nil, cred, payload)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// openReference is the path an envelope took before OpenWire: json.Unmarshal
// and OpenInfo.
func openReference(ts *TrustStore, body []byte, now time.Time) ([]byte, string, error) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	payload, identity, _, err := ts.OpenInfo(&env, now)
	return payload, identity, err
}

// errClass maps an error onto the sentinel a caller would match.
func errClass(err error) error {
	for _, class := range []error{ErrBadEnvelope, ErrExpired, ErrUntrusted, ErrBadSignature, ErrBadChain} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

func wireEntries(ts *TrustStore) int {
	ts.cache.mu.RLock()
	defer ts.cache.mu.RUnlock()
	return len(ts.cache.entries)
}

func TestOpenWireHitServesSameIdentity(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	proxy, _ := cred.Delegate(30 * time.Minute)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()

	for i, want := range []bool{false, true, true} {
		payload := []byte(fmt.Sprintf(`{"op":"propose","n":%d}`, i))
		got, id, info, err := ts.OpenWire([]byte("keep:"), seal(t, proxy, payload), now)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "keep:"+string(payload) || id != "/O=NEES/CN=coordinator" {
			t.Fatalf("open %d: payload %q identity %q", i, got, id)
		}
		if info.CacheHit != want || info.WireFallback {
			t.Fatalf("open %d: info %+v, want hit=%v and no fallback", i, info, want)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	// The empty payload is canonical too ("payload":""); only nil is not.
	if got, _, info, err := ts.OpenWire(nil, seal(t, proxy, []byte{}), now); err != nil || len(got) != 0 || !info.CacheHit {
		t.Fatalf("empty payload: %q %+v %v", got, info, err)
	}
}

func TestOpenWireExpiryServedAsMissAndEvicted(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(5 * time.Minute) // shortest window in the chain
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	body := seal(t, proxy, []byte("x"))

	if _, _, _, err := ts.OpenWire(nil, body, now); err != nil {
		t.Fatal(err)
	}
	if wireEntries(ts) != 1 {
		t.Fatalf("cache holds %d entries after one open", wireEntries(ts))
	}
	// Same bytes, same digest — but past the proxy's expiry, though inside
	// the identity certificate's and the CA's. The entry must not be served,
	// and the full path must name the reason.
	_, _, info, err := ts.OpenWire(nil, body, now.Add(10*time.Minute))
	if !errors.Is(err, ErrExpired) || info.CacheHit {
		t.Fatalf("past expiry: err = %v, info %+v", err, info)
	}
	if wireEntries(ts) != 0 {
		t.Fatal("expired entry not evicted")
	}
	// Nothing was poisoned: back inside the window the chain verifies again.
	if _, _, _, err := ts.OpenWire(nil, body, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestOpenWireTamperRejected(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	body := seal(t, cred, []byte(`{"op":"execute","name":"step-7"}`))
	if _, _, _, err := ts.OpenWire(nil, body, now); err != nil {
		t.Fatal(err)
	}
	payload64, chain, sig64, ok := splitWire(body)
	if !ok {
		t.Fatal("sealed envelope is not in the canonical layout")
	}
	at := func(field []byte) int { return cap(body) - cap(field) } // index of field[0] in body

	// flip replaces body[i] with another byte of the same alphabet, so the
	// layout stays canonical and only the content changes.
	flip := func(i int) []byte {
		out := append([]byte(nil), body...)
		if out[i] == 'A' {
			out[i] = 'B'
		} else {
			out[i] = 'A'
		}
		return out
	}
	subject := bytes.Index(chain, []byte("alice"))
	for name, tc := range map[string]struct {
		body []byte
		want error
	}{
		"chain byte (subject)":   {flip(at(chain) + subject), ErrBadSignature},
		"chain byte (signature)": {flip(at(chain) + len(chain) - 10), ErrBadSignature},
		"payload byte":           {flip(at(payload64) + 3), ErrBadSignature},
		"signature byte":         {flip(at(sig64) + 3), ErrBadSignature},
	} {
		hitsBefore, _ := ts.CacheStats()
		_, _, _, err := ts.OpenWire(nil, tc.body, now)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if hits, _ := ts.CacheStats(); bytes.Contains([]byte(name), []byte("chain")) && hits != hitsBefore {
			t.Errorf("%s: tampered chain produced a cache hit", name)
		}
		// And the reference path agrees.
		if _, _, ref := openReference(NewTrustStore(ca.Cert), tc.body, now); errClass(ref) != errClass(err) {
			t.Errorf("%s: OpenWire %v, reference %v", name, err, ref)
		}
	}
	// A failure is never cached: only the one good chain is remembered, and
	// the untampered body still opens, from the cache.
	if wireEntries(ts) != 1 {
		t.Fatalf("cache holds %d entries", wireEntries(ts))
	}
	if _, _, info, err := ts.OpenWire(nil, body, now); err != nil || !info.CacheHit {
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
		if _, _, _, err := ts.OpenWire(nil, body, now); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := ts.CacheStats(); hits != 1 {
		t.Fatalf("hits=%d, want 1", hits)
	}
	// Rotate the CA: same subject, new key. The envelope's chain was signed
	// by the old key; the wire entry from before the rotation must be gone.
	rotated, err := NewAuthority(ca.Name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(rotated.Cert)
	if _, _, info, err := ts.OpenWire(nil, body, now); !errors.Is(err, ErrBadSignature) || info.CacheHit {
		t.Fatalf("chain signed by rotated-away CA key: err = %v, info %+v", err, info)
	}
	fresh, _ := rotated.Issue("/O=NEES/CN=alice", time.Hour)
	if _, id, _, err := ts.OpenWire(nil, seal(t, fresh, []byte("x")), now); err != nil || id != "/O=NEES/CN=alice" {
		t.Fatalf("credential of the rotated CA: %q %v", id, err)
	}
}

func TestOpenWireCacheDisabled(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	ts.SetCacheCapacity(0)
	body := seal(t, cred, []byte("x"))
	for i := 0; i < 3; i++ {
		got, _, info, err := ts.OpenWire(nil, body, time.Now())
		if err != nil || string(got) != "x" || info.CacheHit || info.WireFallback {
			t.Fatalf("open %d: %q %+v %v", i, got, info, err)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 0 || misses != 0 || wireEntries(ts) != 0 {
		t.Fatalf("disabled cache recorded hits=%d misses=%d entries=%d", hits, misses, wireEntries(ts))
	}
}

func TestOpenWireNeverCachesFailures(t *testing.T) {
	ca := newTestCA(t)
	rogueCA, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	rogue, _ := rogueCA.Issue("/O=Rogue/CN=mallory", time.Hour)
	ts := NewTrustStore(ca.Cert)
	body := seal(t, rogue, []byte("x"))
	for i := 0; i < 3; i++ {
		if _, _, _, err := ts.OpenWire(nil, body, time.Now()); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("attempt %d: err = %v, want ErrUntrusted", i, err)
		}
	}
	if hits, misses := ts.CacheStats(); hits != 0 || misses != 3 || wireEntries(ts) != 0 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0/3/0", hits, misses, wireEntries(ts))
	}
}

// TestOpenWireConcurrent drives many goroutines through OpenWire on one trust
// store — valid, expired and untrusted envelopes, each goroutine with its own
// destination buffer — and is meaningful under -race.
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
			var buf []byte
			for i := 0; i < 200; i++ {
				got, id, _, err := ts.OpenWire(buf[:0], goodBody, now)
				if err != nil || id != "/O=NEES/CN=good" || !bytes.Equal(got, payload) {
					t.Errorf("good envelope: %q id=%q err=%v", got, id, err)
					return
				}
				buf = got
				if _, _, _, err := ts.OpenWire(buf[:0], shortBody, late); !errors.Is(err, ErrExpired) {
					t.Errorf("expired envelope: err=%v", err)
					return
				}
				if _, _, _, err := ts.OpenWire(buf[:0], rogueBody, now); !errors.Is(err, ErrUntrusted) {
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
// still accepted, through encoding/json, whatever its layout.
func TestOpenWireNonCanonicalFallsBack(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	now := time.Now()
	payload := []byte(`{"op":"propose"}`)
	body := seal(t, cred, payload)
	payload64, chain, sig64, _ := splitWire(body)

	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	indented, _ := json.MarshalIndent(&env, "", "  ")
	variants := map[string][]byte{
		"indented":        indented,
		"trailing space":  append(append([]byte(nil), body...), '\n'),
		"reordered keys":  []byte(fmt.Sprintf(`{"chain":%s,"signature":"%s","payload":"%s"}`, chain, sig64, payload64)),
		"extra key":       []byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"signature":"%s","v":1}`, payload64, chain, sig64)),
		"escaped base64":  []byte(fmt.Sprintf(`{"payload":"\u00%x%s","chain":%s,"signature":"%s"}`, payload64[0], payload64[1:], chain, sig64)),
		"duplicate chain": []byte(fmt.Sprintf(`{"payload":"%s","chain":[],"chain":%s,"signature":"%s"}`, payload64, chain, sig64)),
	}
	for name, v := range variants {
		got, id, info, err := ts.OpenWire(nil, v, now)
		if err != nil || !bytes.Equal(got, payload) || id != "/O=NEES/CN=alice" {
			t.Errorf("%s: %q %q %v", name, got, id, err)
		}
		// "duplicate chain" keeps the three keys where splitWire looks for
		// them, so it is not a fallback — it is a miss whose bytes are never
		// remembered, because they are not one JSON value.
		if want := name != "duplicate chain"; info.WireFallback != want {
			t.Errorf("%s: WireFallback = %v", name, info.WireFallback)
		}
	}
	if wireEntries(ts) != 1 { // the content digest the fallbacks went through
		t.Fatalf("cache holds %d entries", wireEntries(ts))
	}

	// "payload":null is what a nil payload encodes as: valid, not canonical.
	nilBody := seal(t, cred, nil)
	if got, _, info, err := ts.OpenWire([]byte("k"), nilBody, now); err != nil || string(got) != "k" || !info.WireFallback {
		t.Fatalf("nil payload: %q %+v %v", got, info, err)
	}

	// A second "payload" key smuggled in behind the chain: encoding/json
	// reads the last one, so that is the one whose signature counts — the
	// envelope was signed over the first and must fail, on both paths.
	smuggled := []byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"payload":"%s","signature":"%s"}`,
		payload64, chain, base64.StdEncoding.EncodeToString([]byte(`{"op":"cancel"}`)), sig64))
	_, _, _, err := ts.OpenWire(nil, smuggled, now)
	_, _, ref := openReference(NewTrustStore(ca.Cert), smuggled, now)
	if !errors.Is(err, ErrBadSignature) || !errors.Is(ref, ErrBadSignature) {
		t.Fatalf("smuggled payload: OpenWire %v, reference %v", err, ref)
	}

	// Not an envelope at all.
	for _, junk := range []string{``, `{`, `[]`, `"x"`, `{"payload":"!!","chain":[],"signature":""}`} {
		_, _, info, err := ts.OpenWire(nil, []byte(junk), now)
		_, _, ref := openReference(ts, []byte(junk), now)
		if err == nil || errClass(err) != errClass(ref) || !info.WireFallback {
			t.Errorf("%q: OpenWire %v (info %+v), reference %v", junk, err, info, ref)
		}
	}
}

// TestOpenWireLargePayload: a payload far larger than the destination buffer
// (and than anything the step path sends) takes the same path.
func TestOpenWireLargePayload(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	body := seal(t, cred, payload)
	for i := 0; i < 2; i++ {
		got, _, info, err := ts.OpenWire(make([]byte, 0, 16), body, time.Now())
		if err != nil || !bytes.Equal(got, payload) || info.WireFallback || info.CacheHit != (i == 1) {
			t.Fatalf("open %d: %d bytes, info %+v, err %v", i, len(got), info, err)
		}
	}
}

// TestShortPublicKeyInChainIsRejected: a presented chain is attacker-chosen
// JSON, and a certificate in it may carry a public key of any length. Found
// by FuzzOpenWire: ed25519.Verify panics on one instead of returning false.
func TestShortPublicKeyInChainIsRejected(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(time.Minute)
	ts := NewTrustStore(ca.Cert)

	proxy.Chain[1].PublicKey = nil // the issuer of the leaf
	if _, err := ts.VerifyChain(proxy.Chain, time.Now()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("empty issuer key: err = %v", err)
	}
	env, _ := Sign(cred, []byte("x"))
	env.Chain = []*Certificate{{Subject: "/O=NEES/CN=alice", Issuer: ca.Name, PublicKey: []byte{1, 2, 3}}}
	if _, _, err := ts.Open(env, time.Now()); err == nil {
		t.Fatal("short leaf key accepted")
	}
}
