package ogsi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/runtime"
)

// testFabric is a CA + container + authorized client wired over a real TCP
// listener.
type testFabric struct {
	ca        *gsi.Authority
	trust     *gsi.TrustStore
	container *Container
	client    *Client
	addr      string
}

// codePolicyReject is the application fault code the test service's
// "fail" op answers with.
const codePolicyReject = "policy-reject"

func newFabric(t testing.TB, wire func(*Container)) *testFabric {
	t.Helper()
	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	serverCred, err := ca.Issue("/O=NEES/CN=container", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clientCred, err := ca.Issue("/O=NEES/CN=alice", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := gsi.NewGridmap(map[string]string{"/O=NEES/CN=alice": "alice"})
	cont := NewContainer(serverCred, trust, gm)
	if wire != nil {
		wire(cont)
	}
	addr, err := cont.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = cont.Stop(ctx)
	})
	cl := NewClient("http://"+addr, clientCred, trust)
	return &testFabric{ca: ca, trust: trust, container: cont, client: cl, addr: addr}
}

func echoService() *Service {
	svc := NewService("echo")
	svc.RegisterOp("echo", func(_ context.Context, caller Caller, params json.RawMessage) (any, error) {
		var in map[string]string
		if err := json.Unmarshal(params, &in); err != nil {
			return nil, Errf(CodeBadRequest, "bad params: %v", err)
		}
		in["caller"] = caller.Identity
		in["account"] = caller.Account
		return in, nil
	})
	svc.RegisterOp("fail", func(context.Context, Caller, json.RawMessage) (any, error) {
		return nil, Errf(codePolicyReject, "force limit exceeded")
	})
	return svc
}

func TestCallRoundTrip(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	var out map[string]string
	err := f.client.Call(context.Background(), "echo", "echo", map[string]string{"msg": "hi"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out["msg"] != "hi" {
		t.Fatalf("echo = %v", out)
	}
	if out["caller"] != "/O=NEES/CN=alice" || out["account"] != "alice" {
		t.Fatalf("caller propagated wrong: %v", out)
	}
}

func TestCallServiceFaultCode(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	err := f.client.Call(context.Background(), "echo", "fail", nil, nil)
	if !IsRemoteCode(err, codePolicyReject) {
		t.Fatalf("err = %v, want policy-reject", err)
	}
}

func TestCallUnknownServiceAndOp(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	if err := f.client.Call(context.Background(), "nope", "x", nil, nil); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown service err = %v", err)
	}
	if err := f.client.Call(context.Background(), "echo", "nope", nil, nil); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown op err = %v", err)
	}
}

func TestUnauthorizedIdentityRejected(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	mallory, err := f.ca.Issue("/O=NEES/CN=mallory", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient("http://"+f.addr, mallory, f.trust)
	errCall := cl.Call(context.Background(), "echo", "echo", map[string]string{}, nil)
	if !IsRemoteCode(errCall, CodeDenied) {
		t.Fatalf("err = %v, want denied (gridmap rejection)", errCall)
	}
}

func TestUntrustedCredentialRejected(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	rogueCA, _ := gsi.NewAuthority("/O=Rogue/CN=CA", time.Hour)
	rogue, _ := rogueCA.Issue("/O=NEES/CN=alice", time.Hour) // same name, wrong CA
	trust := gsi.NewTrustStore(f.ca.Cert, rogueCA.Cert)      // client trusts both so it can read the reply
	cl := NewClient("http://"+f.addr, rogue, trust)
	err := cl.Call(context.Background(), "echo", "echo", map[string]string{}, nil)
	if !IsRemoteCode(err, CodeDenied) {
		t.Fatalf("err = %v, want denied (untrusted CA)", err)
	}
}

func TestDelegatedProxyAccepted(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	proxy, err := f.client.Cred.Delegate(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient("http://"+f.addr, proxy, f.trust)
	var out map[string]string
	if err := cl.Call(context.Background(), "echo", "echo", map[string]string{}, &out); err != nil {
		t.Fatal(err)
	}
	if out["caller"] != "/O=NEES/CN=alice" {
		t.Fatalf("proxy caller = %q", out["caller"])
	}
}

func TestFindServiceDataRemote(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		_ = svc.SDEs.Set("status", "idle")
		_ = svc.SDEs.Set("steps", 42)
		c.AddService(svc)
	})
	sdes, err := f.client.FindServiceData(context.Background(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	// The two stored elements plus the container's computed "metrics" SDE.
	if len(sdes) != 3 {
		t.Fatalf("got %d SDEs", len(sdes))
	}
	names := map[string]bool{}
	for _, sde := range sdes {
		names[sde.Name] = true
	}
	if !names["status"] || !names["steps"] || !names["metrics"] {
		t.Fatalf("SDE names = %v", names)
	}
	one, err := f.client.FindServiceData(context.Background(), "echo", "steps")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Name != "steps" {
		t.Fatalf("named query = %v", one)
	}
	var n int
	if err := json.Unmarshal(one[0].Value, &n); err != nil || n != 42 {
		t.Fatalf("steps = %d, %v", n, err)
	}
}

func TestLastChangedRemote(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		_ = svc.SDEs.Set("a", 1)
		_ = svc.SDEs.Set("b", 2)
		c.AddService(svc)
	})
	sde, err := f.client.LastChanged(context.Background(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	if sde.Name != "b" {
		t.Fatalf("last changed = %q", sde.Name)
	}
}

func TestRequestTerminationRemote(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		svc.Lifetimes.Register("res-1", time.Minute, nil)
		c.AddService(svc)
	})
	if err := f.client.RequestTermination(context.Background(), "echo", "res-1", time.Hour); err != nil {
		t.Fatal(err)
	}
	err := f.client.RequestTermination(context.Background(), "echo", "nope", time.Hour)
	if !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown resource err = %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	svc := NewService("x")
	svc.RegisterOp("a", nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate op should panic")
			}
		}()
		svc.RegisterOp("a", nil)
	}()
	cont := NewContainer(nil, nil, nil)
	cont.AddService(svc)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate service should panic")
			}
		}()
		cont.AddService(NewService("x"))
	}()
}

func TestCallTransportErrorIsNotRemote(t *testing.T) {
	ca, _ := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	cl := NewClient("http://127.0.0.1:1", cred, gsi.NewTrustStore(ca.Cert)) // nothing listens
	err := cl.Call(context.Background(), "echo", "echo", nil, nil)
	if err == nil {
		t.Fatal("expected transport error")
	}
	var re *RemoteError
	if IsRemoteCode(err, CodeInternal) || errorsAs(err, &re) {
		t.Fatalf("transport error misclassified as remote fault: %v", err)
	}
	if !strings.Contains(err.Error(), "transport") {
		t.Fatalf("err = %v", err)
	}
	// A plain HTTP server where a container should be refuses the upgrade:
	// a transport error too, naming its answer.
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	cl.BaseURL = srv.URL
	err = cl.Call(context.Background(), "echo", "echo", nil, nil)
	if err == nil || errorsAs(err, &re) || !strings.Contains(err.Error(), "ogsi: transport") || !strings.Contains(err.Error(), "upgrade answered 404") {
		t.Fatalf("err = %v, want a transport error naming the 404", err)
	}
}

// errorsAs avoids importing errors twice in the test file.
func errorsAs(err error, target **RemoteError) bool {
	for err != nil {
		if re, ok := err.(*RemoteError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestOpError(t *testing.T) {
	e := Errf(CodeConflict, "step %d", 7)
	if e.Error() != "conflict: step 7" {
		t.Fatalf("OpError = %q", e.Error())
	}
}

func TestWaitChangeLocal(t *testing.T) {
	s := newSDEStore(runtime.Env{})
	_ = s.Set("status", "idle")
	// Already-newer version returns immediately.
	sde, err := s.WaitChange(context.Background(), "status", 0)
	if err != nil || sde.Version != 1 {
		t.Fatalf("immediate = %+v, %v", sde, err)
	}
	// Blocks until the next update.
	done := make(chan SDE, 1)
	go func() {
		out, err := s.WaitChange(context.Background(), "status", 1)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	time.Sleep(10 * time.Millisecond)
	_ = s.Set("status", "running")
	select {
	case sde := <-done:
		if sde.Version != 2 {
			t.Fatalf("notified version = %d", sde.Version)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitChange never woke")
	}
	// Context cancellation unblocks.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.WaitChange(ctx, "status", 99); err == nil {
		t.Fatal("expected context timeout")
	}
}

func TestWaitChangeSurvivesWatchOverflow(t *testing.T) {
	s := newSDEStore(runtime.Env{})
	_ = s.Set("wanted", 0)
	done := make(chan SDE, 1)
	go func() {
		out, err := s.WaitChange(context.Background(), "wanted", 1)
		if err != nil {
			t.Error(err)
			return
		}
		done <- out
	}()
	time.Sleep(10 * time.Millisecond)
	// Flood unrelated updates to overflow the 16-slot watch buffer, then
	// update the watched element.
	for i := 0; i < 100; i++ {
		_ = s.Set("noise", i)
	}
	_ = s.Set("wanted", 1)
	select {
	case sde := <-done:
		if sde.Name != "wanted" {
			t.Fatalf("woke on %q", sde.Name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("overflowed watcher never recovered")
	}
}

func TestWaitServiceDataRemote(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := echoService()
		_ = svc.SDEs.Set("last-transaction", "t0")
		c.AddService(svc)
	})
	svc, _ := f.container.Service("echo")

	// Immediate delivery of the current version.
	sde, err := f.client.WaitServiceData(context.Background(), "echo", "last-transaction", 0, time.Second)
	if err != nil || sde.Version != 1 {
		t.Fatalf("immediate = %+v, %v", sde, err)
	}
	// Notification on change while long-polling.
	done := make(chan SDE, 1)
	go func() {
		out, err := f.client.WaitServiceData(context.Background(), "echo", "last-transaction", 1, 5*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		done <- out
	}()
	time.Sleep(30 * time.Millisecond)
	_ = svc.SDEs.Set("last-transaction", "t1")
	select {
	case got := <-done:
		var name string
		_ = json.Unmarshal(got.Value, &name)
		if name != "t1" {
			t.Fatalf("notified value = %q", name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote long-poll never delivered")
	}
	// Quiet timeout surfaces as unavailable (the re-arm signal).
	err = func() error {
		_, err := f.client.WaitServiceData(context.Background(), "echo", "last-transaction", 99, 50*time.Millisecond)
		return err
	}()
	if !IsRemoteCode(err, CodeUnavailable) {
		t.Fatalf("quiet poll err = %v, want unavailable", err)
	}
}

func TestWatchServiceDataLoop(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	svc, _ := f.container.Service("echo")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var got []string
	done := make(chan error, 1)
	go func() {
		done <- f.client.WatchServiceData(ctx, "echo", "step", 200*time.Millisecond, func(sde SDE) {
			var v string
			_ = json.Unmarshal(sde.Value, &v)
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		})
	}()
	for i, v := range []string{"a", "b", "c"} {
		time.Sleep(20 * time.Millisecond)
		_ = svc.SDEs.Set("step", v)
		_ = i
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 3 || got[0] != "a" || got[len(got)-1] != "c" {
		t.Fatalf("watched = %v", got)
	}
}
