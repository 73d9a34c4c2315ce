package gsi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// convFabric is one client–server pair under a fixed CA and a fixed clock,
// establishing contexts the way a transport does: the offer rides a signed
// request, the accept a signed reply, and each side takes what it knows of
// the other from verifying that envelope.
type convFabric struct {
	ca             *Authority
	trust          *TrustStore
	client, server *Credential
	table          *ContextTable
	now            time.Time
}

func newConvFabric(t testing.TB) *convFabric {
	ca := fixedAuthority("/O=NEES/CN=fuzz CA", 1)
	trust := NewTrustStore(ca.Cert)
	return &convFabric{
		ca:     ca,
		trust:  trust,
		client: fixedCredential(ca, "/O=NEES/CN=coordinator", 20, time.Hour, 30*time.Minute),
		server: fixedCredential(ca, "/O=NEES/CN=uiuc", 30, 2*time.Hour, 0),
		table:  NewContextTable(trust),
		now:    fuzzEpoch.Add(time.Minute),
	}
}

// handshake establishes a context and returns the client's half.
func (f *convFabric) handshake(t testing.TB) *Context {
	t.Helper()
	h, err := NewHandshake()
	if err != nil {
		t.Fatal(err)
	}
	accept := f.accept(t, f.client, h)
	_, serverID, serverInfo, err := openBody(f.trust, seal(t, f.server, []byte(accept)), f.now)
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.Complete(accept, f.client.Identity(), serverID, serverInfo)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// accept carries h's offer in a request signed by cred and returns the
// table's accept.
func (f *convFabric) accept(t testing.TB, cred *Credential, h *Handshake) string {
	t.Helper()
	_, clientID, clientInfo, err := openBody(f.trust, seal(t, cred, []byte(h.Offer())), f.now)
	if err != nil {
		t.Fatal(err)
	}
	accept, _, err := f.table.Accept(h.Offer(), clientID, clientInfo, f.server, f.now)
	if err != nil {
		t.Fatal(err)
	}
	return accept
}

// exchange sends one request under c and returns the server's half of the
// context it arrived on.
func (f *convFabric) exchange(t testing.TB, c *Context, payload string) *Context {
	t.Helper()
	seq := c.NextSeq()
	got, sc, gotSeq, err := f.table.Open(nil, c.Seal(nil, []byte(payload), seq), f.now)
	if err != nil || string(got) != payload || gotSeq != seq {
		t.Fatalf("open: %q seq %d, %v", got, gotSeq, err)
	}
	reply := sc.Seal(nil, []byte("re:"+payload), seq)
	if back, err := c.OpenReply(nil, reply, seq); err != nil || string(back) != "re:"+payload {
		t.Fatalf("open reply: %q %v", back, err)
	}
	return sc
}

func TestSecureConversationRoundTrip(t *testing.T) {
	f := newConvFabric(t)
	c := f.handshake(t)
	sc := f.exchange(t, c, `{"op":"propose"}`)
	if sc.Peer() != "/O=NEES/CN=coordinator" || c.Peer() != "/O=NEES/CN=uiuc" {
		t.Fatalf("peers: server sees %q, client sees %q", sc.Peer(), c.Peer())
	}
	f.exchange(t, c, `{"op":"execute"}`)

	// A reply is bound to its request: presented for another sequence number,
	// or to another context, it does not open.
	seq := c.NextSeq()
	if _, _, _, err := f.table.Open(nil, c.Seal(nil, []byte("x"), seq), f.now); err != nil {
		t.Fatal(err)
	}
	reply := sc.Seal(nil, []byte("y"), seq)
	if _, err := c.OpenReply(nil, reply, seq-1); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("reply opened for the wrong request: %v", err)
	}
	if _, err := f.handshake(t).OpenReply(nil, reply, seq); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("reply opened under another context: %v", err)
	}
	// A signed envelope is not a MAC'd one, on either side.
	signed := seal(t, f.client, []byte("z"))
	if _, err := c.OpenReply(nil, signed, seq); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("client: %v", err)
	}
	if _, _, _, err := f.table.Open(nil, signed, f.now); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("server: %v", err)
	}
}

// TestSealedLayoutIsExact: the MAC'd envelope has one accepted spelling.
func TestSealedLayoutIsExact(t *testing.T) {
	f := newConvFabric(t)
	c := f.handshake(t)
	good := c.Seal(nil, []byte(`{"a":1}`), 7)
	if _, ok := splitSealed(good); !ok {
		t.Fatalf("canonical body not recognised: %s", good)
	}
	for _, bad := range [][]byte{
		bytes.Replace(good, []byte(`"seq":7`), []byte(`"seq":07`), 1),
		bytes.Replace(good, []byte(`"seq":7`), []byte(`"seq": 7`), 1),
		bytes.Replace(good, []byte(`"seq":7`), []byte(`"seq":99999999999999999999`), 1),
		bytes.Replace(good, []byte(`{"payload"`), []byte(`{ "payload"`), 1),
		append(append([]byte(nil), good...), ' '),
		good[:len(good)-1],
		bytes.Replace(good, []byte(`","context":"`), []byte(`","Context":"`), 1),
	} {
		if _, ok := splitSealed(bad); ok {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestReplayWindow(t *testing.T) {
	f := newConvFabric(t)
	c := f.handshake(t)
	open := func(seq uint64) error {
		_, _, _, err := f.table.Open(nil, c.Seal(nil, []byte("p"), seq), f.now)
		return err
	}
	// In-flight requests may arrive out of order within the window.
	top := uint64(replayWindow + 6)
	for _, seq := range []uint64{2, 1, 5, 3, 64, 65, top, 7, 128} {
		if err := open(seq); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	for _, seq := range []uint64{2, 5, 64, 128, top, 6} { // replays, and 6 = top-window: behind it
		if err := open(seq); !errors.Is(err, ErrReplay) {
			t.Fatalf("seq %d: %v, want replay", seq, err)
		}
	}
	// A jump of more than the whole ring clears it.
	if err := open(top + 10*replayWindow); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{top + 10*replayWindow - 1, top + 9*replayWindow + 1} {
		if err := open(seq); err != nil {
			t.Fatalf("seq %d after the jump: %v", seq, err)
		}
	}
	if err := open(0); !errors.Is(err, ErrNotSealed) { // numbering starts at 1
		t.Fatalf("seq 0: %v", err)
	}
	// A forged message does not move the window: its number stays open.
	next := top + 20*replayWindow
	p, q := c.Seal(nil, []byte("p"), next), c.Seal(nil, []byte("q"), next)
	tail := len(q) - macLen64 - len(sealTail)
	forged := append(q[:tail:tail], p[tail:]...)
	if _, _, _, err := f.table.Open(nil, forged, f.now); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("forged MAC: %v", err)
	}
	if err := open(next); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptRepeatedOfferSameContext: a retried or concurrent first request
// offers the same handshake; it gets the same context, not a second one.
func TestAcceptRepeatedOfferSameContext(t *testing.T) {
	f := newConvFabric(t)
	h, _ := NewHandshake()
	_, id, info, err := openBody(f.trust, seal(t, f.client, []byte("x")), f.now)
	if err != nil {
		t.Fatal(err)
	}
	first, created, err := f.table.Accept(h.Offer(), id, info, f.server, f.now)
	if err != nil || !created {
		t.Fatalf("first accept: %v %v", created, err)
	}
	again, created, err := f.table.Accept(h.Offer(), id, info, f.server, f.now)
	if err != nil || created || again != first || f.table.Len() != 1 {
		t.Fatalf("repeat: created %v, same %v, %d contexts, %v", created, again == first, f.table.Len(), err)
	}
	// The same offer from another identity is another context.
	if _, created, err := f.table.Accept(h.Offer(), "/O=NEES/CN=other", info, f.server, f.now); err != nil || !created {
		t.Fatalf("other identity: %v %v", created, err)
	}
	// An accept answers its own offer only.
	other, _ := NewHandshake()
	if _, err := other.Complete(first, "/O=NEES/CN=coordinator", "/O=NEES/CN=uiuc", info); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("foreign accept completed: %v", err)
	}
	for _, bad := range []string{"", "not base64!", first[:len(first)-4]} {
		if _, _, err := f.table.Accept(bad, id, info, f.server, f.now); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("offer %q: %v", bad, err)
		}
		if _, err := h.Complete(bad, id, "/O=NEES/CN=uiuc", info); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("accept %q: %v", bad, err)
		}
	}
}

// TestContextLifetimeIsTheChainIntersection: the client's proxy expires
// first, so the context does; both sides see it, and the server drops it.
func TestContextLifetimeIsTheChainIntersection(t *testing.T) {
	f := newConvFabric(t)
	c := f.handshake(t)
	proxyEnd := f.client.Chain[0].NotAfter
	if !c.expiry.Equal(proxyEnd) {
		t.Fatalf("client context expires %v, want the proxy's %v", c.expiry, proxyEnd)
	}
	sc := f.exchange(t, c, "p")
	if !sc.expiry.Equal(proxyEnd) {
		t.Fatalf("server context expires %v, want %v", sc.expiry, proxyEnd)
	}
	if !c.Live(proxyEnd, f.trust) || c.Live(proxyEnd.Add(time.Nanosecond), f.trust) {
		t.Fatal("client liveness does not end at the proxy's expiry")
	}
	late := c.Seal(nil, []byte("p"), c.NextSeq())
	if _, _, _, err := f.table.Open(nil, late, proxyEnd.Add(time.Nanosecond)); !errors.Is(err, ErrContextExpired) {
		t.Fatalf("after expiry: %v", err)
	}
	if _, _, _, err := f.table.Open(nil, late, f.now); !errors.Is(err, ErrContextUnknown) || f.table.Len() != 0 {
		t.Fatalf("expired context kept: %v, %d held", err, f.table.Len())
	}
}

// TestTrustStoreAddRevokesContexts: a trust-set change kills every context
// established before it, on both sides.
func TestTrustStoreAddRevokesContexts(t *testing.T) {
	f := newConvFabric(t)
	c := f.handshake(t)
	f.exchange(t, c, "p")
	f.trust.Add(fixedAuthority("/O=NEES/CN=another CA", 3).Cert)
	if c.Live(f.now, f.trust) {
		t.Fatal("client context outlived a trust-set change")
	}
	if _, _, _, err := f.table.Open(nil, c.Seal(nil, []byte("p"), c.NextSeq()), f.now); !errors.Is(err, ErrContextRevoked) {
		t.Fatalf("after Add: %v", err)
	}
	// A fresh handshake under the new generation works.
	f.exchange(t, f.handshake(t), "p")
}

// TestContextTableEvictsLeastRecentlyUsed: at MaxContexts a new context
// displaces the one idle longest, never one in use.
func TestContextTableEvictsLeastRecentlyUsed(t *testing.T) {
	f := newConvFabric(t)
	idle := f.handshake(t)
	busy := f.handshake(t)
	_, id, info, err := openBody(f.trust, seal(t, f.client, []byte("x")), f.now)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < MaxContexts; i++ {
		h, _ := NewHandshake()
		if _, _, err := f.table.Accept(h.Offer(), id, info, f.server, f.now); err != nil {
			t.Fatal(err)
		}
		if i == MaxContexts/2 {
			f.exchange(t, busy, "still here") // busy becomes the most recent
		}
	}
	if f.table.Len() != MaxContexts {
		t.Fatalf("%d contexts, want %d", f.table.Len(), MaxContexts)
	}
	f.handshake(t) // one more: the least recently used goes
	if f.table.Len() != MaxContexts {
		t.Fatalf("table grew to %d", f.table.Len())
	}
	if _, _, _, err := f.table.Open(nil, idle.Seal(nil, []byte("p"), idle.NextSeq()), f.now); !errors.Is(err, ErrContextUnknown) {
		t.Fatalf("idle context: %v, want evicted", err)
	}
	f.exchange(t, busy, "p")
}

// TestTrustStoreAddRacesVerification: Add and a verification in flight share
// the CA set. Under -race this fails without the store's lock; and a verdict
// computed against the old CA set is not stored after Add flushed the cache.
func TestTrustStoreAddRacesVerification(t *testing.T) {
	ca := fixedAuthority("/O=NEES/CN=fuzz CA", 1)
	cred := fixedCredential(ca, "/O=NEES/CN=coordinator", 20, time.Hour, 0)
	ts := NewTrustStore(ca.Cert)
	ts.SetCacheCapacity(0) // every open reads the CA set
	now := fuzzEpoch.Add(time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body, _ := AppendSignedEnvelope(nil, cred, []byte(fmt.Sprintf("%d/%d", g, i)))
				if _, _, _, err := openBody(ts, body, now); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ts.Add(fixedAuthority(fmt.Sprintf("/O=NEES/CN=extra %d", i), byte(40+i)).Cert)
	}
	wg.Wait()

	// The interleaving the lock alone cannot close: a verdict computed under
	// one generation, stored after the next began.
	ts.SetCacheCapacity(DefaultChainCacheCapacity)
	e, err := ts.verifyChainSlow(cred.Chain, now)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(fixedAuthority("/O=NEES/CN=late CA", 99).Cert)
	key, _ := ts.cache.digest(cred.Chain)
	ts.cache.store(key, e)
	if _, ok := ts.cache.lookup(key, now); ok {
		t.Fatal("a verdict from before Add was stored after it")
	}
}
