package ogsi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/trace"
)

func TestAppendRequestJSONDecodesToRequest(t *testing.T) {
	params, _ := json.Marshal(map[string]int{"step": 7})
	sent := time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC)
	enc := appendRequestJSON(nil, "ntcp", "propose", params, sent, trace.SpanContext{}, "")
	var req request
	if err := json.Unmarshal(enc, &req); err != nil {
		t.Fatalf("bad encoding: %v\n%s", err, enc)
	}
	if req.Service != "ntcp" || req.Op != "propose" {
		t.Fatalf("decoded %+v", req)
	}
	if !req.Sent.Equal(sent) {
		t.Fatalf("sent %v != %v", req.Sent, sent)
	}
	var p map[string]int
	if err := json.Unmarshal(req.Params, &p); err != nil || p["step"] != 7 {
		t.Fatalf("params %s: %v", req.Params, err)
	}

	// Nil params must encode as null, like json.Marshal of a nil RawMessage.
	enc = appendRequestJSON(nil, "svc", "op", nil, sent, trace.SpanContext{}, "")
	if !bytes.Contains(enc, []byte(`"params":null`)) {
		t.Fatalf("nil params: %s", enc)
	}
	if err := json.Unmarshal(enc, &req); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRequestJSONMatchesMarshal(t *testing.T) {
	params, _ := json.Marshal(map[string]int{"step": 7})
	sent := time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC)
	cases := []request{
		{Service: "ntcp", Op: "propose", Params: params, Sent: sent},
		{Service: "ntcp", Op: "propose", Params: params, Sent: sent,
			Trace: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		{Service: "svc", Op: "op", Sent: sent},
		{Service: "ntcp", Op: "propose", Params: params, Sent: sent,
			Trace: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
			Offer: "MDEyMzQ1Njc4OWFiY2RlZjAxMjM0NTY3ODlhYmNkZWYwMTIzNDU2Nzg5YWJjZGVm"},
		{Service: "svc", Op: "op", Sent: sent, Offer: `needs "escaping"`},
	}
	for _, rq := range cases {
		want, err := json.Marshal(&rq)
		if err != nil {
			t.Fatal(err)
		}
		// The appender takes the span context itself, so only a well-formed
		// traceparent (or none) can reach the wire.
		var sc trace.SpanContext
		if rq.Trace != "" {
			if sc, err = trace.ParseTraceparent(rq.Trace); err != nil {
				t.Fatal(err)
			}
		}
		got := appendRequestJSON(nil, rq.Service, rq.Op, rq.Params, rq.Sent, sc, rq.Offer)
		if !bytes.Equal(got, want) {
			t.Fatalf("append %s != marshal %s", got, want)
		}
	}
}

func TestAppendResponseJSONMatchesMarshal(t *testing.T) {
	cases := []*response{
		{OK: true},
		{OK: true, Result: json.RawMessage(`{"f":[1.5]}`)},
		{OK: false, Code: CodeDenied, Error: `authentication "failed"`},
		{OK: false, Code: CodeNotFound, Error: "no service", Result: nil},
		{OK: true, Trace: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		{OK: true, Result: json.RawMessage(`7`), Trace: `needs "escaping"`},
		{OK: false, Code: CodeInternal, Error: "boom", Trace: "00-x-x-01"},
		{OK: true, Result: json.RawMessage(`{}`), Trace: "00-x-x-01", Accept: "AAAA"},
		{OK: false, Code: CodeContextRefused, Error: "gone", Accept: `needs "escaping"`},
	}
	for _, resp := range cases {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := appendResponseJSON(nil, resp)
		if !bytes.Equal(got, want) {
			t.Fatalf("append %s != marshal %s", got, want)
		}
	}
}

func TestReadAllInto(t *testing.T) {
	payload := strings.Repeat("x", 100_000)
	got, err := readAllInto(make([]byte, 0, 8), strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	// Capacity reuse: a large-enough buffer must not grow.
	buf := make([]byte, 0, 256)
	got, err = readAllInto(buf, strings.NewReader("short"))
	if err != nil || string(got) != "short" {
		t.Fatalf("%q %v", got, err)
	}
	if cap(got) != 256 {
		t.Fatalf("buffer reallocated: cap %d", cap(got))
	}
	// Limited reader mid-stream error propagates.
	if _, err := readAllInto(nil, io.LimitReader(iotest{}, 10)); err == nil {
		t.Fatal("expected error")
	}
}

type iotest struct{}

func (iotest) Read(p []byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestDefaultHTTPClientIsTuned: a client with no HTTP of its own carries its
// envelopes on DefaultTransport's session pool, whose exchanges are bounded
// above the 30 s long-poll cap; sequential calls share one session. A pinned
// transport opens no more sessions than its cap however many calls run at
// once, and hands each call a session as one frees.
func TestDefaultHTTPClientIsTuned(t *testing.T) {
	c := &Client{}
	if c.httpClient() != DefaultHTTPClient || DefaultHTTPClient.Transport != DefaultTransport {
		t.Fatal("default client does not use the shared session transport")
	}
	if DefaultTransport.limit != 0 || DefaultTransport.timeout <= 30*time.Second {
		t.Fatalf("DefaultTransport: limit %d, exchange bound %v", DefaultTransport.limit, DefaultTransport.timeout)
	}
	// An explicitly configured client still wins.
	own := &Client{HTTP: DefaultHTTPClient}
	if own.httpClient() != DefaultHTTPClient {
		t.Fatal("explicit HTTP client not honoured")
	}

	accepted := func(f *testFabric) int64 {
		return f.container.Telemetry().Snapshot().Counters[metricSessionsAccepted]
	}
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	for i := 0; i < 5; i++ {
		if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{"i": "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := accepted(f); n != 1 {
		t.Fatalf("5 sequential calls opened %d sessions, want 1", n)
	}

	const cap, goroutines, calls = 2, 8, 25
	pinned := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	pinned.client.HTTP = &http.Client{Transport: NewPinnedTransport(cap)}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := pinned.client.Call(context.Background(), "echo", "echo", map[string]string{"i": "x"}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := accepted(pinned); n < 1 || n > cap {
		t.Fatalf("%d concurrent callers opened %d sessions through a transport pinned at %d", goroutines, n, cap)
	}
}
