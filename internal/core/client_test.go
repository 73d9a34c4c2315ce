package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/ogsi"
)

// fixture wires an NTCP server into a real container and returns a client
// factory.
type fixture struct {
	ca     *gsi.Authority
	trust  *gsi.TrustStore
	addr   string
	cont   *ogsi.Container
	server *Server
	cred   *gsi.Credential
}

func newFixture(t *testing.T, plugin Plugin, policy *SitePolicy) *fixture {
	t.Helper()
	ca, err := gsi.NewAuthority("/O=NEES/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore(ca.Cert)
	serverCred, _ := ca.Issue("/O=NEES/CN=site", time.Hour)
	clientCred, _ := ca.Issue("/O=NEES/CN=coordinator", time.Hour)
	gm := gsi.NewGridmap(map[string]string{"/O=NEES/CN=coordinator": "coord"})
	cont := ogsi.NewContainer(serverCred, trust, gm)
	srv := NewServer(plugin, policy, ServerOptions{})
	cont.AddService(srv.Service())
	addr, err := cont.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = cont.Stop(ctx)
	})
	return &fixture{ca: ca, trust: trust, addr: addr, cont: cont, server: srv, cred: clientCred}
}

func (f *fixture) ogsiClient() *ogsi.Client {
	return ogsi.NewClient("http://"+f.addr, f.cred, f.trust)
}

func (f *fixture) client(retry RetryPolicy, hc *http.Client) *Client {
	og := f.ogsiClient()
	og.HTTP = hc
	return NewClient(og, retry)
}

// flakyTransport fails the first n round trips with a transport error.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	attempts int
	inner    http.RoundTripper
}

func (ft *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	ft.attempts++
	fail := ft.failures > 0
	if fail {
		ft.failures--
	}
	ft.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("injected network failure")
	}
	inner := ft.inner
	if inner == nil {
		inner = ogsi.DefaultTransport
	}
	return inner.RoundTrip(r)
}

func TestClientRunOverNetwork(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(NoRetry, nil)
	rec, err := cl.Run(context.Background(), proposal("step-1", 0.03))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted || rec.Results[0].Forces[0] != 3 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ft := &flakyTransport{failures: 2}
	cl := f.client(DefaultRetry, &http.Client{Transport: ft})
	rec, err := cl.Run(context.Background(), proposal("step-1", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateExecuted {
		t.Fatalf("state = %s", rec.State)
	}
	st := cl.Stats()
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("stats = %+v, want recovered retries", st)
	}
}

func TestClientNoRetryFailsLikePublicMOSTRun(t *testing.T) {
	// E2 shape: a coordinator without retry dies on the first transport
	// failure, exactly as the public MOST run ended at step 1493.
	f := newFixture(t, springPlugin(100), nil)
	ft := &flakyTransport{failures: 1}
	cl := f.client(NoRetry, &http.Client{Transport: ft})
	_, err := cl.Run(context.Background(), proposal("step-1493", 0.01))
	if err == nil {
		t.Fatal("no-retry client should fail on a transport fault")
	}
}

func TestClientRetryIsAtMostOnce(t *testing.T) {
	// The proposal lands; the response is lost; the retry must not apply
	// the action twice. We assert via the server-side execution counter.
	var mu sync.Mutex
	executions := 0
	plugin := PluginFunc(func(_ context.Context, actions []Action) ([]Result, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return []Result{{ControlPoint: "drift", Displacements: actions[0].Displacements, Forces: []float64{1}}}, nil
	})
	f := newFixture(t, plugin, nil)
	cl := f.client(DefaultRetry, nil)
	ctx := context.Background()
	// Simulate a lost response by calling Execute twice directly.
	if _, err := cl.Propose(ctx, proposal("s", 0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Execute(ctx, "s"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("action executed %d times, want 1", executions)
	}
}

func TestClientRunRejectedPropagates(t *testing.T) {
	pol := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.01}}}
	f := newFixture(t, springPlugin(100), pol)
	cl := f.client(DefaultRetry, nil)
	rec, err := cl.Run(context.Background(), proposal("too-big", 0.5))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if rec == nil || rec.State != StateRejected {
		t.Fatalf("record = %+v", rec)
	}
	// Policy rejections must not be retried.
	if cl.Stats().Retries != 0 {
		t.Fatalf("client retried a policy rejection: %+v", cl.Stats())
	}
}

func TestClientRunFailedExecution(t *testing.T) {
	plugin := PluginFunc(func(context.Context, []Action) ([]Result, error) {
		return nil, fmt.Errorf("actuator fault")
	})
	f := newFixture(t, plugin, nil)
	cl := f.client(NoRetry, nil)
	_, err := cl.Run(context.Background(), proposal("s", 0.01))
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestClientCancelOverNetwork(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(NoRetry, nil)
	ctx := context.Background()
	if _, err := cl.Propose(ctx, proposal("c", 0.01)); err != nil {
		t.Fatal(err)
	}
	rec, err := cl.Cancel(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCancelled {
		t.Fatalf("state = %s", rec.State)
	}
}

func TestClientGetOverNetwork(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	cl := f.client(NoRetry, nil)
	ctx := context.Background()
	_, _ = cl.Propose(ctx, proposal("g", 0.01))
	rec, err := cl.Get(ctx, "g")
	if err != nil || rec.Name != "g" {
		t.Fatalf("Get = %+v, %v", rec, err)
	}
}

func TestClientRetryExhaustion(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ft := &flakyTransport{failures: 100}
	cl := f.client(RetryPolicy{Attempts: 3, Backoff: time.Millisecond}, &http.Client{Transport: ft})
	_, err := cl.Propose(context.Background(), proposal("x", 0.01))
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if ft.attempts != 3 {
		t.Fatalf("made %d attempts, want 3", ft.attempts)
	}
}

func TestClientContextCancelStopsRetry(t *testing.T) {
	f := newFixture(t, springPlugin(100), nil)
	ft := &flakyTransport{failures: 100}
	cl := f.client(RetryPolicy{Attempts: 50, Backoff: 20 * time.Millisecond}, &http.Client{Transport: ft})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Propose(ctx, proposal("x", 0.01))
	if err == nil {
		t.Fatal("expected failure")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry loop ignored context cancellation")
	}
}

func TestRetryPolicyDelays(t *testing.T) {
	r := RetryPolicy{Backoff: 10 * time.Millisecond, MaxBackoff: 35 * time.Millisecond}
	if d := r.delay(0); d != 10*time.Millisecond {
		t.Fatalf("delay(0) = %v", d)
	}
	if d := r.delay(1); d != 20*time.Millisecond {
		t.Fatalf("delay(1) = %v", d)
	}
	if d := r.delay(3); d != 35*time.Millisecond {
		t.Fatalf("delay(3) = %v, want capped", d)
	}
	zero := RetryPolicy{}
	if zero.attempts() != 1 {
		t.Fatal("zero policy should mean one attempt")
	}
	if zero.delay(0) <= 0 {
		t.Fatal("zero policy delay must be positive")
	}
}

func TestTransientClassification(t *testing.T) {
	if transient(nil) {
		t.Fatal("nil is not transient")
	}
	if !transient(fmt.Errorf("dial tcp: connection refused")) {
		t.Fatal("transport errors are transient")
	}
	if transient(&ogsi.RemoteError{Code: ogsi.CodeDenied}) {
		t.Fatal("denials are not transient")
	}
	if !transient(&ogsi.RemoteError{Code: ogsi.CodeUnavailable}) {
		t.Fatal("unavailable is transient")
	}
}
