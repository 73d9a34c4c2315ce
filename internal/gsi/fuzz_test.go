package gsi

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
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

// FuzzOpenWire is the differential target for the wire path: whatever the
// bytes, OpenWire and json.Unmarshal+OpenInfo agree on payload, identity and
// error class — with the chain cache cold, warm, past its window, and flushed
// by a CA rotation between the warm-up and the open.
func FuzzOpenWire(f *testing.F) {
	ca := fixedAuthority("/O=NEES/CN=fuzz CA", 1)
	rotated := fixedAuthority(ca.Name, 2) // same subject, new key
	alice := fixedCredential(ca, "/O=NEES/CN=alice", 10, time.Hour, 0)
	proxy := fixedCredential(ca, "/O=NEES/CN=coordinator", 20, time.Hour, 10*time.Minute)
	payload := []byte(`{"service":"ntcp","op":"propose"}`)
	aliceBody, proxyBody := seal(f, alice, payload), seal(f, proxy, payload)

	payload64, chain, sig64, _ := splitWire(proxyBody)
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
		fast, ref := NewTrustStore(ca.Cert), NewTrustStore(ca.Cert)
		// Warm both caches with the pristine envelopes, so that a body which
		// keeps a chain intact is served from the cache.
		for _, warm := range [][]byte{aliceBody, proxyBody} {
			if _, _, _, err := fast.OpenWire(nil, warm, fuzzEpoch); err != nil {
				t.Fatal(err)
			}
			if _, _, err := openReference(ref, warm, fuzzEpoch); err != nil {
				t.Fatal(err)
			}
		}
		if rotate {
			fast.Add(rotated.Cert)
			ref.Add(rotated.Cert)
		}
		now := fuzzEpoch.Add(time.Duration(lateMinutes) * time.Minute)
		// Twice: the first open may itself have warmed the cache.
		for round := 0; round < 2; round++ {
			got, gotID, info, gotErr := fast.OpenWire([]byte("dst:"), body, now)
			want, wantID, wantErr := openReference(ref, body, now)
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("round %d: OpenWire err %v (info %+v), reference err %v", round, gotErr, info, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if gotID != wantID || !bytes.Equal(got, append([]byte("dst:"), want...)) {
				t.Fatalf("round %d: OpenWire (%q, %q), reference (%q, %q)", round, got, gotID, want, wantID)
			}
		}
	})
}
