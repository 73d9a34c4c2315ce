// Package gsi implements a Grid Security Infrastructure in the style used by
// NEESgrid: certificate-based mutual authentication, short-lived delegated
// proxy credentials, signed envelopes, security contexts that authenticate
// later messages with a MAC (context.go), and gridmap authorization mapping
// Grid identities to site-local accounts.
//
// The paper's deployment used X.509/GSI from the Globus Toolkit. This
// package keeps the trust *model* — a chain CA → identity → proxy → proxy…,
// validated against a set of trusted CAs, with proxies carrying limited
// lifetimes — while using Ed25519 signatures over a canonical JSON encoding
// instead of ASN.1/X.509, which keeps the implementation self-contained and
// auditable (see DESIGN.md §2 for the substitution rationale).
package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors returned by chain verification and signing.
var (
	ErrExpired       = errors.New("gsi: credential expired or not yet valid")
	ErrUntrusted     = errors.New("gsi: chain does not terminate at a trusted CA")
	ErrBadSignature  = errors.New("gsi: signature verification failed")
	ErrBadChain      = errors.New("gsi: malformed credential chain")
	ErrNotAuthorized = errors.New("gsi: identity not authorized")
)

// Certificate binds a subject name to a public key, signed by its issuer.
// Proxy certificates (IsProxy) extend their issuer's subject with a
// "/proxy" component, exactly mirroring GSI proxy naming.
type Certificate struct {
	Subject   string            `json:"subject"`
	Issuer    string            `json:"issuer"`
	PublicKey ed25519.PublicKey `json:"public_key"`
	NotBefore time.Time         `json:"not_before"`
	NotAfter  time.Time         `json:"not_after"`
	IsCA      bool              `json:"is_ca"`
	IsProxy   bool              `json:"is_proxy"`
	Signature []byte            `json:"signature"`
}

// tbs returns the canonical "to be signed" encoding of the certificate: its
// JSON with the signature encoded as null.
func (c *Certificate) tbs() []byte {
	unsigned := *c
	unsigned.Signature = nil
	b, err := json.Marshal(&unsigned)
	if err != nil {
		panic(fmt.Sprintf("gsi: certificate encoding: %v", err)) // cannot fail for this type
	}
	return b
}

// ValidAt reports whether now falls within the certificate validity window.
func (c *Certificate) ValidAt(now time.Time) bool {
	return !now.Before(c.NotBefore) && !now.After(c.NotAfter)
}

// Credential is a private key together with its certificate chain, leaf
// first, ending at (but not including) the CA certificate.
type Credential struct {
	Chain []*Certificate
	Key   ed25519.PrivateKey
}

// Leaf returns the end-entity certificate of the credential.
func (c *Credential) Leaf() *Certificate {
	if len(c.Chain) == 0 {
		return nil
	}
	return c.Chain[0]
}

// Identity returns the base Grid identity — the leaf subject with proxy
// components stripped — e.g. "/O=NEES/CN=coordinator".
func (c *Credential) Identity() string {
	leaf := c.Leaf()
	if leaf == nil {
		return ""
	}
	return BaseIdentity(leaf.Subject)
}

// BaseIdentity strips trailing "/proxy" components from a subject name.
func BaseIdentity(subject string) string {
	for strings.HasSuffix(subject, "/proxy") {
		subject = strings.TrimSuffix(subject, "/proxy")
	}
	return subject
}

// Authority is a certificate authority: the root of a trust domain
// ("virtual organization" in Grid terms).
type Authority struct {
	Name string
	Cert *Certificate
	key  ed25519.PrivateKey
}

// NewAuthority creates a self-signed CA, valid for the given duration from
// now.
func NewAuthority(name string, validity time.Duration) (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate CA key: %w", err)
	}
	now := time.Now()
	cert := &Certificate{
		Subject:   name,
		Issuer:    name,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(validity),
		IsCA:      true,
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	return &Authority{Name: name, Cert: cert, key: priv}, nil
}

// Issue creates an identity credential for subject, valid for the given
// duration.
func (a *Authority) Issue(subject string, validity time.Duration) (*Credential, error) {
	if strings.Contains(subject, "/proxy") {
		return nil, fmt.Errorf("gsi: subject %q may not contain proxy components", subject)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate key: %w", err)
	}
	now := time.Now()
	cert := &Certificate{
		Subject:   subject,
		Issuer:    a.Name,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(validity),
	}
	cert.Signature = ed25519.Sign(a.key, cert.tbs())
	return &Credential{Chain: []*Certificate{cert}, Key: priv}, nil
}

// Delegate derives a proxy credential from c: a fresh key pair whose
// certificate is signed by c's key and whose subject extends c's subject
// with "/proxy". Proxy lifetimes are clamped to the parent's expiry, as in
// GSI.
func (c *Credential) Delegate(validity time.Duration) (*Credential, error) {
	leaf := c.Leaf()
	if leaf == nil {
		return nil, ErrBadChain
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate proxy key: %w", err)
	}
	now := time.Now()
	notAfter := now.Add(validity)
	if notAfter.After(leaf.NotAfter) {
		notAfter = leaf.NotAfter
	}
	cert := &Certificate{
		Subject:   leaf.Subject + "/proxy",
		Issuer:    leaf.Subject,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  notAfter,
		IsProxy:   true,
	}
	cert.Signature = ed25519.Sign(c.Key, cert.tbs())
	chain := append([]*Certificate{cert}, c.Chain...)
	return &Credential{Chain: chain, Key: priv}, nil
}

// TrustStore holds the CA certificates a site trusts, plus a bounded cache
// of verified chains (see cache.go) that lets repeated calls with a
// byte-identical chain skip the per-certificate signature checks. It is safe
// for concurrent use, Add included.
type TrustStore struct {
	mu    sync.RWMutex // guards cas; Add bumps the trust generation under it
	cas   map[string]*Certificate
	cache chainCache
}

// NewTrustStore builds a store from CA certificates. The verified-chain
// cache is enabled with DefaultChainCacheCapacity entries; SetCacheCapacity
// tunes or disables it.
func NewTrustStore(cas ...*Certificate) *TrustStore {
	ts := &TrustStore{cas: make(map[string]*Certificate, len(cas))}
	ts.cache.capacity = DefaultChainCacheCapacity
	for _, c := range cas {
		ts.Add(c)
	}
	return ts
}

// Add registers a trusted CA certificate. Any change to the trust set —
// including a key rotation that replaces an existing subject — starts a new
// trust generation: the verified-chain cache is flushed, a verification still
// in flight against the old CA set cannot store its verdict afterwards, and
// every security context established before is dead (context.go). No verdict
// computed against the old CA set outlives it.
func (ts *TrustStore) Add(c *Certificate) {
	if c == nil || !c.IsCA {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.cas[c.Subject] = c
	ts.cache.flush()
}

// trusted returns the CA certificate for subject together with the trust
// generation it belongs to, read as one consistent pair.
func (ts *TrustStore) trusted(subject string) (*Certificate, uint64, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	ca, ok := ts.cas[subject]
	return ca, ts.cache.gen.Load(), ok
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

// VerifyInfo reports how a verification was satisfied. Its exported fields
// are observability metadata for trace spans, never a security signal; the
// unexported ones are what a security context established on this
// verification inherits (Handshake.Complete, ContextTable.Accept).
type VerifyInfo struct {
	// CacheHit is true when the verdict came from the verified-chain cache
	// rather than the full per-certificate cryptographic path.
	CacheHit bool

	notAfter time.Time // end of the chain's validity intersection, CA included
	gen      uint64    // trust generation the verdict was computed under
}

func (info *VerifyInfo) bind(e *chainCacheEntry) {
	info.notAfter, info.gen = e.window.notAfter, e.gen
}

func (ts *TrustStore) verifyChainInfo(chain []*Certificate, now time.Time) (string, VerifyInfo, error) {
	var info VerifyInfo
	if len(chain) == 0 {
		return "", info, ErrBadChain
	}
	key, cacheable := ts.cache.digest(chain)
	if cacheable {
		if e, ok := ts.cache.lookup(key, now); ok {
			info.CacheHit = true
			info.bind(&e)
			return e.identity, info, nil
		}
	}
	e, err := ts.verifyChainSlow(chain, now)
	if err != nil {
		return "", info, err
	}
	if cacheable {
		ts.cache.store(key, e)
	}
	info.bind(&e)
	return e.identity, info, nil
}

// verifyChainSlow is the full cryptographic path. On success it returns the
// chain's identity, its validity window — the intersection of every
// certificate's window including the trusted CA's, which bounds how long a
// cached verdict may be served — and the trust generation of the CA set it
// was checked against.
func (ts *TrustStore) verifyChainSlow(chain []*Certificate, now time.Time) (chainCacheEntry, error) {
	var e chainCacheEntry
	for i, cert := range chain {
		if !cert.ValidAt(now) {
			return e, fmt.Errorf("%w: %s", ErrExpired, cert.Subject)
		}
		e.window.intersect(cert.NotBefore, cert.NotAfter)
		var issuerKey ed25519.PublicKey
		if i+1 < len(chain) {
			parent := chain[i+1]
			if cert.Issuer != parent.Subject {
				return e, fmt.Errorf("%w: issuer %q != parent subject %q", ErrBadChain, cert.Issuer, parent.Subject)
			}
			if cert.IsProxy && cert.Subject != parent.Subject+"/proxy" {
				return e, fmt.Errorf("%w: proxy subject %q does not extend %q", ErrBadChain, cert.Subject, parent.Subject)
			}
			if !cert.IsProxy {
				return e, fmt.Errorf("%w: non-proxy certificate %q below chain head", ErrBadChain, cert.Subject)
			}
			issuerKey = parent.PublicKey
		} else {
			ca, gen, ok := ts.trusted(cert.Issuer)
			if !ok {
				return e, fmt.Errorf("%w: issuer %q", ErrUntrusted, cert.Issuer)
			}
			if !ca.ValidAt(now) {
				return e, fmt.Errorf("%w: CA %s", ErrExpired, ca.Subject)
			}
			e.window.intersect(ca.NotBefore, ca.NotAfter)
			e.gen = gen
			issuerKey = ca.PublicKey
		}
		if !verifySig(issuerKey, cert.tbs(), cert.Signature) {
			return e, fmt.Errorf("%w: %s", ErrBadSignature, cert.Subject)
		}
	}
	e.identity = BaseIdentity(chain[0].Subject)
	return e, nil
}

// verifySig is ed25519.Verify for keys that come off the wire: a certificate
// in a presented chain may carry a public key of any length, which
// ed25519.Verify answers with a panic rather than false.
func verifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// Envelope is a signed message: payload, signer chain, signature by the
// chain's leaf key. A service call travels under one to establish a security
// context (context.go) and MAC'd under that context afterwards.
type Envelope struct {
	Payload   []byte         `json:"payload"`
	Chain     []*Certificate `json:"chain"`
	Signature []byte         `json:"signature"`
}

// Sign wraps payload in an envelope signed by the credential.
func Sign(cred *Credential, payload []byte) (*Envelope, error) {
	if cred == nil || cred.Leaf() == nil {
		return nil, ErrBadChain
	}
	sig := ed25519.Sign(cred.Key, payload)
	return &Envelope{Payload: payload, Chain: cred.Chain, Signature: sig}, nil
}

// AppendSignedEnvelope signs payload with the credential and appends the
// JSON encoding of the resulting envelope — the bytes json.Marshal writes for
// the Envelope Sign returns — to dst, which it returns.
func AppendSignedEnvelope(dst []byte, cred *Credential, payload []byte) ([]byte, error) {
	env, err := Sign(cred, payload)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("gsi: encode envelope: %w", err)
	}
	return append(dst, b...), nil
}

// Open verifies the envelope against the trust store and returns the
// payload and the signer's base identity.
func (ts *TrustStore) Open(env *Envelope, now time.Time) (payload []byte, identity string, err error) {
	payload, identity, _, err = ts.OpenInfo(env, now)
	return payload, identity, err
}

// OpenInfo is Open plus VerifyInfo describing how the chain verification
// was satisfied, so the transport layer can attribute verification time
// (and cache hits) on its trace spans.
func (ts *TrustStore) OpenInfo(env *Envelope, now time.Time) (payload []byte, identity string, info VerifyInfo, err error) {
	if env == nil {
		return nil, "", info, ErrBadChain
	}
	identity, info, err = ts.verifyChainInfo(env.Chain, now)
	if err != nil {
		return nil, "", info, err
	}
	if !verifySig(env.Chain[0].PublicKey, env.Payload, env.Signature) {
		return nil, "", info, ErrBadSignature
	}
	return env.Payload, identity, info, nil
}

// ErrBadEnvelope marks a body that does not decode as an envelope at all —
// as opposed to one that decoded and then failed verification.
var ErrBadEnvelope = errors.New("gsi: malformed envelope")

// Gridmap maps Grid identities to site-local account names — the classic
// GSI gridmap file. A site only accepts identities present in its map.
// Entries may be added and revoked while the site is serving (a pooled
// site authorizes each tenant's coordinator for the duration of its
// lease), so the map is safe for concurrent use.
type Gridmap struct {
	mu      sync.RWMutex
	entries map[string]string
}

// NewGridmap builds a gridmap from identity → local-account pairs.
func NewGridmap(entries map[string]string) *Gridmap {
	g := &Gridmap{entries: make(map[string]string, len(entries))}
	for k, v := range entries {
		g.entries[k] = v
	}
	return g
}

// Map adds or replaces a mapping.
func (g *Gridmap) Map(identity, account string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries[identity] = account
}

// Unmap revokes a mapping — the lease-release path of a shared site pool:
// a tenant's coordinator identity stops being accepted the moment its
// experiment's slots are returned. Unknown identities are a no-op.
func (g *Gridmap) Unmap(identity string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.entries, identity)
}

// Authorize returns the local account mapped to identity, or
// ErrNotAuthorized.
func (g *Gridmap) Authorize(identity string) (string, error) {
	g.mu.RLock()
	acct, ok := g.entries[identity]
	g.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotAuthorized, identity)
	}
	return acct, nil
}

// ParseGridmap parses the comma-separated identity=account entries the
// daemons accept on -allow, e.g.
//
//	/O=NEES/CN=coordinator=coord,/O=NEES/CN=uiuc=uiuc
//
// Grid identities themselves contain "=" (every RDN does), so the local
// account is everything after the LAST "=" — "/O=NEES/CN=x=acct" maps
// identity "/O=NEES/CN=x" to account "acct". Empty entries are skipped
// (a trailing comma is harmless); an entry with no "=", or with an empty
// identity or account, is an error. An empty input yields an empty (deny
// everything) gridmap.
func ParseGridmap(entries string) (*Gridmap, error) {
	g := NewGridmap(nil)
	for _, entry := range strings.Split(entries, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		cut := strings.LastIndex(entry, "=")
		if cut < 0 {
			return nil, fmt.Errorf("gsi: bad gridmap entry %q (want identity=account)", entry)
		}
		id, acct := entry[:cut], entry[cut+1:]
		if id == "" || acct == "" {
			return nil, fmt.Errorf("gsi: bad gridmap entry %q (want identity=account)", entry)
		}
		g.Map(id, acct)
	}
	return g, nil
}
