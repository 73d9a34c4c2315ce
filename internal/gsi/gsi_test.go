package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
	"time"
)

func newTestCA(t *testing.T) *Authority {
	t.Helper()
	ca, err := NewAuthority("/O=NEES/CN=NEES CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerifyIdentity(t *testing.T) {
	ca := newTestCA(t)
	cred, err := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(cred.Chain, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=NEES/CN=coordinator" {
		t.Fatalf("identity = %q", id)
	}
}

func TestIssueRejectsProxySubjects(t *testing.T) {
	ca := newTestCA(t)
	if _, err := ca.Issue("/O=NEES/CN=evil/proxy", time.Hour); err == nil {
		t.Fatal("subject containing /proxy must be rejected")
	}
}

func TestDelegateProxy(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, err := cred.Delegate(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(proxy.Chain) != 2 {
		t.Fatalf("proxy chain length %d, want 2", len(proxy.Chain))
	}
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(proxy.Chain, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=NEES/CN=alice" {
		t.Fatalf("proxy base identity = %q", id)
	}
	// Second-level delegation, as when the coordinator re-delegates to a
	// long-running experiment.
	proxy2, err := proxy.Delegate(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ts.VerifyChain(proxy2.Chain, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "/O=NEES/CN=alice" {
		t.Fatalf("double-proxy identity = %q", id2)
	}
}

func TestProxyLifetimeClampedToParent(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Minute)
	proxy, err := cred.Delegate(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Leaf().NotAfter.After(cred.Leaf().NotAfter) {
		t.Fatal("proxy outlives its parent credential")
	}
}

func TestExpiredCredentialRejected(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(ca.Cert)
	_, err := ts.VerifyChain(cred.Chain, time.Now().Add(2*time.Hour))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestUntrustedCARejected(t *testing.T) {
	ca := newTestCA(t)
	rogue, _ := NewAuthority("/O=Rogue/CN=CA", time.Hour)
	cred, _ := rogue.Issue("/O=Rogue/CN=mallory", time.Hour)
	ts := NewTrustStore(ca.Cert)
	_, err := ts.VerifyChain(cred.Chain, time.Now())
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err = %v, want ErrUntrusted", err)
	}
}

func TestTamperedCertificateRejected(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	cred.Leaf().Subject = "/O=NEES/CN=admin" // tamper after signing
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(cred.Chain, time.Now()); err == nil {
		t.Fatal("tampered certificate must not verify")
	}
}

func TestForgedProxyRejected(t *testing.T) {
	ca := newTestCA(t)
	alice, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	mallory, _ := ca.Issue("/O=NEES/CN=mallory", time.Hour)
	// Mallory signs a "proxy" claiming to descend from alice.
	pub, _, _ := ed25519.GenerateKey(rand.Reader)
	forged := &Certificate{
		Subject:   alice.Leaf().Subject + "/proxy",
		Issuer:    alice.Leaf().Subject,
		PublicKey: pub,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(time.Hour),
		IsProxy:   true,
	}
	forged.Signature = ed25519.Sign(mallory.Key, forged.tbs())
	ts := NewTrustStore(ca.Cert)
	chain := []*Certificate{forged, alice.Leaf()}
	if _, err := ts.VerifyChain(chain, time.Now()); err == nil {
		t.Fatal("forged proxy must not verify")
	}
}

func TestProxyMustExtendIssuerName(t *testing.T) {
	ca := newTestCA(t)
	alice, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := alice.Delegate(time.Minute)
	// Rewriting the proxy subject breaks both naming and the signature;
	// build a correctly signed proxy with a wrong name instead.
	pub, _, _ := ed25519.GenerateKey(rand.Reader)
	bad := &Certificate{
		Subject:   "/O=NEES/CN=admin/proxy",
		Issuer:    alice.Leaf().Subject,
		PublicKey: pub,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(time.Minute),
		IsProxy:   true,
	}
	bad.Signature = ed25519.Sign(alice.Key, bad.tbs())
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain([]*Certificate{bad, alice.Leaf()}, time.Now()); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v, want ErrBadChain", err)
	}
	_ = proxy
}

func TestNonProxyBelowHeadRejected(t *testing.T) {
	ca := newTestCA(t)
	alice, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	bob, _ := ca.Issue("/O=NEES/CN=bob", time.Hour)
	ts := NewTrustStore(ca.Cert)
	chain := []*Certificate{alice.Leaf(), bob.Leaf()}
	if _, err := ts.VerifyChain(chain, time.Now()); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v, want ErrBadChain", err)
	}
}

func TestSignOpenRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(time.Minute)
	env, err := Sign(proxy, []byte("propose step 42"))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	payload, id, err := ts.Open(env, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "propose step 42" {
		t.Fatalf("payload = %q", payload)
	}
	if id != "/O=NEES/CN=alice" {
		t.Fatalf("signer = %q", id)
	}
}

func TestOpenRejectsTamperedPayload(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	env, _ := Sign(cred, []byte("apply 1 mm"))
	env.Payload = []byte("apply 100 mm")
	ts := NewTrustStore(ca.Cert)
	if _, _, err := ts.Open(env, time.Now()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestOpenNilEnvelope(t *testing.T) {
	ts := NewTrustStore()
	if _, _, err := ts.Open(nil, time.Now()); err == nil {
		t.Fatal("nil envelope must fail")
	}
}

func TestGridmap(t *testing.T) {
	g := NewGridmap(map[string]string{"/O=NEES/CN=alice": "alice"})
	acct, err := g.Authorize("/O=NEES/CN=alice")
	if err != nil || acct != "alice" {
		t.Fatalf("Authorize = %q, %v", acct, err)
	}
	if _, err := g.Authorize("/O=NEES/CN=mallory"); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("err = %v, want ErrNotAuthorized", err)
	}
	g.Map("/O=NEES/CN=bob", "bob")
	if acct, _ := g.Authorize("/O=NEES/CN=bob"); acct != "bob" {
		t.Fatal("Map did not add entry")
	}
}

func TestBaseIdentity(t *testing.T) {
	if got := BaseIdentity("/CN=x/proxy/proxy"); got != "/CN=x" {
		t.Fatalf("BaseIdentity = %q", got)
	}
	if got := BaseIdentity("/CN=x"); got != "/CN=x" {
		t.Fatalf("BaseIdentity = %q", got)
	}
}

func TestCredentialIdentityEmpty(t *testing.T) {
	var c Credential
	if c.Identity() != "" || c.Leaf() != nil {
		t.Fatal("empty credential should have empty identity")
	}
}

func TestTrustStoreIgnoresNonCA(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	ts := NewTrustStore(cred.Leaf()) // not a CA: must be ignored
	if _, err := ts.VerifyChain(cred.Chain, time.Now()); err == nil {
		t.Fatal("leaf certificate must not be accepted as a trust anchor")
	}
}

// TestShortPublicKeyInChainIsRejected: a presented chain is attacker-chosen
// JSON, and a certificate in it may carry a public key of any length. Found
// by fuzzing the envelope opener: ed25519.Verify panics on one instead of
// returning false.
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
