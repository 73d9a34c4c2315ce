package gsi

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

// The fuzz fabric is deterministic — fixed key seeds, fixed validity windows,
// fixed clock — so that the envelopes checked in under testdata/fuzz stay
// valid from run to run (Ed25519 signatures are deterministic).
var fuzzEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func fixedKey(seed byte) (ed25519.PublicKey, ed25519.PrivateKey) {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize))
	return priv.Public().(ed25519.PublicKey), priv
}

func fixedAuthority(name string, seed byte) *Authority {
	pub, priv := fixedKey(seed)
	cert := &Certificate{Subject: name, Issuer: name, PublicKey: pub,
		NotBefore: fuzzEpoch, NotAfter: fuzzEpoch.Add(24 * time.Hour), IsCA: true}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	return &Authority{Name: name, Cert: cert, key: priv}
}

// fixedCredential issues subject under ca, valid for the given time from the
// epoch, and — with proxyFor > 0 — delegates a proxy valid that long.
func fixedCredential(ca *Authority, subject string, seed byte, validFor, proxyFor time.Duration) *Credential {
	pub, priv := fixedKey(seed)
	cert := &Certificate{Subject: subject, Issuer: ca.Name, PublicKey: pub,
		NotBefore: fuzzEpoch, NotAfter: fuzzEpoch.Add(validFor)}
	cert.Signature = ed25519.Sign(ca.key, cert.tbs())
	cred := &Credential{Chain: []*Certificate{cert}, Key: priv}
	if proxyFor == 0 {
		return cred
	}
	ppub, ppriv := fixedKey(seed + 1)
	proxy := &Certificate{Subject: subject + "/proxy", Issuer: subject, PublicKey: ppub,
		NotBefore: fuzzEpoch, NotAfter: fuzzEpoch.Add(proxyFor), IsProxy: true}
	proxy.Signature = ed25519.Sign(priv, proxy.tbs())
	return &Credential{Chain: []*Certificate{proxy, cert}, Key: ppriv}
}

// seal returns the encoded envelope around payload, signed by cred.
func seal(t testing.TB, cred *Credential, payload []byte) []byte {
	t.Helper()
	body, err := AppendSignedEnvelope(nil, cred, payload)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// openBody opens an encoded envelope the way the transport does: decode with
// encoding/json, then OpenInfo.
func openBody(ts *TrustStore, body []byte, now time.Time) ([]byte, string, VerifyInfo, error) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, "", VerifyInfo{}, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	return ts.OpenInfo(&env, now)
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

// FuzzOpen is the differential target for the chain cache: whatever the
// bytes, a store with the cache on and one with it off agree on payload,
// identity and error class — with the cache cold, warm, past its window, and
// flushed by a CA rotation between the warm-up and the open. No input panics.
func FuzzOpen(f *testing.F) {
	ca := fixedAuthority("/O=NEES/CN=fuzz CA", 1)
	rotated := fixedAuthority(ca.Name, 2) // same subject, new key
	alice := fixedCredential(ca, "/O=NEES/CN=alice", 10, time.Hour, 0)
	proxy := fixedCredential(ca, "/O=NEES/CN=coordinator", 20, time.Hour, 10*time.Minute)
	payload := []byte(`{"service":"ntcp","op":"propose"}`)
	aliceBody, proxyBody := seal(f, alice, payload), seal(f, proxy, payload)

	// The three fields of proxyBody as they appear in it, to splice.
	env, _ := Sign(proxy, payload)
	chain, _ := json.Marshal(env.Chain)
	payload64 := base64.StdEncoding.EncodeToString(payload)
	sig64 := base64.StdEncoding.EncodeToString(env.Signature)
	other := base64.StdEncoding.EncodeToString([]byte(`{"op":"cancel"}`))
	for _, seed := range [][]byte{
		aliceBody,
		proxyBody,
		seal(f, proxy, nil),      // "payload":null
		seal(f, proxy, []byte{}), // "payload":""
		proxyBody[:len(proxyBody)/2],
		bytes.Replace(proxyBody, []byte(`"is_proxy":true`), []byte(`"is_proxy":false`), 1),
		bytes.Replace(proxyBody, chain, chain[:len(chain)/2], 1), // truncated chain
		append(append([]byte(nil), proxyBody...), ' '),
		[]byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"payload":"%s","signature":"%s"}`, payload64, chain, other, sig64)),
		[]byte(fmt.Sprintf(`{"payload":"%s","chain":[],"chain":%s,"signature":"%s"}`, payload64, chain, sig64)),
		[]byte(fmt.Sprintf(`{"chain":%s,"signature":"%s","payload":"%s"}`, chain, sig64, payload64)),
		[]byte(fmt.Sprintf(`{"payload":"%s\n","chain":%s,"signature":"%s"}`, payload64, chain, sig64)),
		[]byte(fmt.Sprintf(`{"payload":"%s","chain":%s,"signature":"%s="}`, payload64, chain, sig64)),
		[]byte(`{"payload":"","chain":null,"signature":""}`),
		[]byte(`null`),
	} {
		f.Add(seed, false, uint16(0))
		f.Add(seed, true, uint16(0))
		f.Add(seed, false, uint16(30)) // proxy expired, identity certificates not
	}

	f.Fuzz(func(t *testing.T, body []byte, rotate bool, lateMinutes uint16) {
		cached, plain := NewTrustStore(ca.Cert), NewTrustStore(ca.Cert)
		plain.SetCacheCapacity(0)
		// Warm the cache with the pristine envelopes, so that a body which
		// keeps a chain intact is served from it.
		for _, warm := range [][]byte{aliceBody, proxyBody} {
			for _, ts := range []*TrustStore{cached, plain} {
				if _, _, _, err := openBody(ts, warm, fuzzEpoch); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rotate {
			cached.Add(rotated.Cert)
			plain.Add(rotated.Cert)
		}
		now := fuzzEpoch.Add(time.Duration(lateMinutes) * time.Minute)
		// Twice: the first open may itself have warmed the cache.
		for round := 0; round < 2; round++ {
			got, gotID, info, gotErr := openBody(cached, body, now)
			want, wantID, _, wantErr := openBody(plain, body, now)
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("round %d: cached err %v (info %+v), uncached err %v", round, gotErr, info, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if gotID != wantID || !bytes.Equal(got, want) {
				t.Fatalf("round %d: cached (%q, %q), uncached (%q, %q)", round, got, gotID, want, wantID)
			}
		}
	})
}

// The structured mutations FuzzOpenContext applies to a legitimate message,
// and the refusal each must meet.
const (
	mutReplayed = iota
	mutBeyondWindow
	mutCrossContext
	mutReflected
	mutTamperedPayload
	mutTamperedSeq
	mutTamperedContext
	mutTamperedMAC
	mutPostExpiry
	mutPostRotation
	mutKinds
)

// FuzzOpenContext holds the MAC'd path to its one promise: a body opens only
// if the context's other end sealed it, for this direction, and it has not
// been opened before. Arbitrary bytes must neither panic nor open, on the
// server's opener or the client's; and a legitimate exchange carrying the
// fuzzed payload, once opened, must refuse every structured mutation with its
// own error, before any payload is handed out: replayed, reordered beyond the
// window, relabelled to another context, a reply presented as a request,
// tampered payload, sequence number, context ID or MAC, opened after the
// context's expiry, opened after a trust-set change.
func FuzzOpenContext(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"service":"ntcp","op":"propose","params":{"name":"run/step-7/uiuc"},"sent":"2026-01-01T00:01:00Z"}`),
		[]byte(`{"ok":true}`),
		{},
		[]byte(`{"payload":"","context":"AAAAAAAAAAAAAAAAAAAAAA==","seq":1,"mac":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="}`),
		[]byte(`{"payload":"e30=","context":"AAAAAAAAAAAAAAAAAAAAAA==","seq":01,"mac":""}`),
	}
	for i, seed := range seeds {
		for kind := 0; kind < mutKinds; kind++ {
			f.Add(seed, uint8(kind), uint64(i*7919+kind))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, kind uint8, arg uint64) {
		fab := newConvFabric(t)
		a, b := fab.handshake(t), fab.handshake(t)
		if _, _, _, err := fab.table.Open(nil, data, fab.now); err == nil {
			t.Fatalf("arbitrary bytes opened on the server: %q", data)
		}
		if _, err := a.OpenReply(nil, data, arg); err == nil {
			t.Fatalf("arbitrary bytes opened on the client: %q", data)
		}

		seq := a.NextSeq()
		req := a.Seal(nil, data, seq)
		got, server, gotSeq, err := fab.table.Open([]byte("dst:"), req, fab.now)
		if err != nil || !bytes.Equal(got, append([]byte("dst:"), data...)) || gotSeq != seq {
			t.Fatalf("legitimate request: %q seq %d, %v", got, gotSeq, err)
		}
		reply := server.Seal(nil, data, seq)

		// fresh is a legitimate, never-opened message, sliced into its fields.
		fresh, ok := splitSealed(a.Seal(nil, data, a.NextSeq()))
		if !ok {
			t.Fatal("Seal wrote a body splitSealed refuses")
		}
		payload, err := base64.StdEncoding.DecodeString(string(fresh.payload64))
		if err != nil {
			t.Fatal(err)
		}
		now := fab.now
		var bad []byte
		var want error
		switch kind % mutKinds {
		case mutReplayed:
			bad, want = req, ErrReplay
		case mutBeyondWindow:
			ahead := a.seq.Load() + replayWindow + arg%1000
			if _, _, _, err := fab.table.Open(nil, a.Seal(nil, data, ahead), now); err != nil {
				t.Fatalf("message far ahead: %v", err)
			}
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrReplay
		case mutCrossContext:
			bad, want = appendSealed(nil, payload, &b.id, fresh.seq, &fresh.mac), ErrBadMAC
		case mutReflected:
			bad, want = reply, ErrBadMAC
		case mutTamperedPayload:
			if len(payload) == 0 {
				payload = append(payload, byte(arg))
			} else {
				payload[arg%uint64(len(payload))] ^= 1 << (arg / 64 % 8)
			}
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrBadMAC
		case mutTamperedSeq:
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq+1+arg%(1<<40), &fresh.mac), ErrBadMAC
		case mutTamperedContext:
			fresh.id[arg%contextIDSize] ^= 1 << (arg / contextIDSize % 8)
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrContextUnknown
		case mutTamperedMAC:
			fresh.mac[arg%macSize] ^= 1 << (arg / macSize % 8)
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrBadMAC
		case mutPostExpiry:
			now = a.expiry.Add(time.Duration(1 + arg%uint64(time.Hour)))
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrContextExpired
		case mutPostRotation:
			fab.trust.Add(fixedAuthority(fab.ca.Name, 2).Cert)
			bad, want = appendSealed(nil, payload, &fresh.id, fresh.seq, &fresh.mac), ErrContextRevoked
		}
		if out, _, _, err := fab.table.Open(nil, bad, now); !errors.Is(err, want) || out != nil {
			t.Fatalf("mutation %d: %v (payload %q), want %v", kind%mutKinds, err, out, want)
		}

		// The client holds a reply to its request, and to nothing else.
		if _, err := a.OpenReply(nil, reply, seq+1+arg%8); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("reply opened for another request: %v", err)
		}
		if _, err := b.OpenReply(nil, reply, seq); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("reply opened under another context: %v", err)
		}
		if _, err := a.OpenReply(nil, req, seq); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("request opened as a reply: %v", err)
		}
		if back, err := a.OpenReply(nil, reply, seq); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("legitimate reply: %q %v", back, err)
		}
	})
}
