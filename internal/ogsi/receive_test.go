package ogsi

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

var noSpan trace.SpanContext

// send opens a session to the fabric's container by hand and sends body as
// one request frame, returning the reply frame.
func send(t *testing.T, f *testFabric, body []byte) (int, []byte) {
	t.Helper()
	conn, br := dialSession(t, f.addr)
	defer conn.Close()
	return sendFrame(t, conn, br, body)
}

// sealRequest returns a signed envelope around a request payload.
func sealRequest(t *testing.T, f *testFabric, payload []byte) []byte {
	t.Helper()
	body, err := gsi.AppendSignedEnvelope(nil, f.client.Cred, payload)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// openReply verifies a container reply and decodes the response in it.
func openReply(t *testing.T, f *testFabric, reply []byte) response {
	t.Helper()
	payload, _, _, err := openSigned(f.trust, reply, time.Now())
	if err != nil {
		t.Fatalf("reply does not verify: %v\n%s", err, reply)
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeHTTPStatusContract pins what the receive path answers before a
// request exists: 426 for anything sent to /ogsi but a session upgrade, a
// POST of an envelope included; then, per frame, 400 for a body that is not
// an envelope, a signed CodeDenied for one that does not verify, a signed
// CodeBadRequest for a verified payload that is not a request — as before
// the single-pass path.
func TestServeHTTPStatusContract(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	good := sealRequest(t, f, appendRequestJSON(nil, "echo", "echo", []byte(`{"msg":"hi"}`), time.Now(), noSpan, ""))
	for _, req := range []*http.Request{
		mustRequest(t, http.MethodPost, "http://"+f.addr+"/ogsi", good),
		mustRequest(t, http.MethodGet, "http://"+f.addr+"/ogsi", nil),
	} {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != sessionProtocol {
			t.Errorf("%s /ogsi: %d, Upgrade %q (%q); want 426 naming %s", req.Method, resp.StatusCode, resp.Header.Get("Upgrade"), body, sessionProtocol)
		}
	}
	if n := f.container.Telemetry().Snapshot().Counters[metricSessionsAccepted]; n != 0 {
		t.Fatalf("%d sessions accepted from plain requests", n)
	}

	for _, junk := range []string{``, `{`, `[]`, `"x"`, `not json`, `{"payload":"!!!","chain":[],"signature":""}`} {
		if _, _, _, err := openSigned(f.trust, []byte(junk), time.Now()); !errors.Is(err, gsi.ErrBadEnvelope) {
			t.Errorf("%q: openSigned %v, want gsi.ErrBadEnvelope", junk, err)
		}
		if status, body := send(t, f, []byte(junk)); status != http.StatusBadRequest || !bytes.Contains(body, []byte("bad envelope")) {
			t.Errorf("%q: status %d body %q, want 400 bad envelope", junk, status, body)
		}
	}

	tampered := append([]byte(nil), good...)
	if i := bytes.Index(tampered, []byte(`"signature":"`)) + len(`"signature":"`); tampered[i] == 'A' {
		tampered[i] = 'B'
	} else {
		tampered[i] = 'A'
	}
	status, reply := send(t, f, tampered)
	if resp := openReply(t, f, reply); status != http.StatusOK || resp.OK || resp.Code != CodeDenied {
		t.Fatalf("tampered signature: status %d, response %+v", status, resp)
	}
	// A second "payload" key smuggled in behind the chain: encoding/json
	// reads the last one, which is not the one that was signed.
	var env gsi.Envelope
	if err := json.Unmarshal(good, &env); err != nil {
		t.Fatal(err)
	}
	chain, _ := json.Marshal(env.Chain)
	smuggled := fmt.Sprintf(`{"payload":%q,"chain":%s,"payload":%q,"signature":%q}`,
		base64.StdEncoding.EncodeToString(env.Payload), chain,
		base64.StdEncoding.EncodeToString([]byte(`{"service":"echo","op":"fail"}`)),
		base64.StdEncoding.EncodeToString(env.Signature))
	status, reply = send(t, f, []byte(smuggled))
	if resp := openReply(t, f, reply); status != http.StatusOK || resp.OK || resp.Code != CodeDenied {
		t.Fatalf("smuggled payload: status %d, response %+v", status, resp)
	}
	if n := f.container.Telemetry().Snapshot().Counters["ogsi.auth.failed"]; n != 2 {
		t.Fatalf("ogsi.auth.failed = %d", n)
	}

	status, reply = send(t, f, sealRequest(t, f, []byte(`{"service":`)))
	if resp := openReply(t, f, reply); status != http.StatusOK || resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("undecodable request: status %d, response %+v", status, resp)
	}
}

// TestServeHTTPBodyLimit: a frame over the limit is answered 413 from its
// header alone and its session closed, not read and then called a bad
// envelope; one of exactly the limit is read whole and judged for what it is.
func TestServeHTTPBodyLimit(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	conn, br := dialSession(t, f.addr)
	defer conn.Close()
	header := appendFrameHeader(nil)
	binary.BigEndian.PutUint32(header[2:], maxBodyBytes+1)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	status, body, err := readFrame(br, nil)
	if err != nil || status != http.StatusRequestEntityTooLarge {
		t.Fatalf("frame of limit+1 bytes: status %d (%q) %v, want 413", status, body, err)
	}
	if _, _, err := readFrame(br, nil); err != io.EOF {
		t.Fatalf("session after an oversize header: %v, want closed", err)
	}
	junk := bytes.Repeat([]byte{'x'}, maxBodyBytes)
	if status, body := send(t, f, junk); status != http.StatusBadRequest || !bytes.Contains(body, []byte("bad envelope")) {
		t.Fatalf("frame of exactly the limit: status %d (%q), want 400 bad envelope", status, body)
	}
	// And a large real request is read to the end and dispatched.
	pad := strings.Repeat("x", 1<<20)
	var out map[string]string
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{"msg": pad}, &out); err != nil || out["msg"] != pad {
		t.Fatalf("1 MiB request: %v (%d bytes echoed)", err, len(out["msg"]))
	}
	// A request the client cannot frame is refused before it is sent, with
	// the container's own words.
	err = f.client.Call(context.Background(), "echo", "echo", map[string]string{"msg": string(junk)}, nil)
	if err == nil || !strings.Contains(err.Error(), "ogsi: http 413: ogsi: body exceeds 16 MiB") {
		t.Fatalf("request over the limit: %v", err)
	}
}

// TestFallbackCounters: the counter exists at zero on a fresh container and
// client registry, stays there across canonical traffic, and counts exactly
// the documents that went through encoding/json.
func TestFallbackCounters(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	clientReg := telemetry.NewRegistry()
	f.client.UseTelemetry(clientReg)
	counters := func(reg *telemetry.Registry) (decode int64) {
		n, ok := reg.Snapshot().Counters[MetricDecodeFallbacks]
		if !ok {
			t.Fatalf("%s is not pre-registered", MetricDecodeFallbacks)
		}
		return n
	}
	if d := counters(f.container.Telemetry()); d != 0 {
		t.Fatalf("fresh container: decode=%d", d)
	}

	ctx := context.Background()
	var out map[string]string
	for i := 0; i < 5; i++ {
		if err := f.client.Call(ctx, "echo", "echo", map[string]string{"msg": "hi"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.client.CallBatch(ctx, "echo", []BatchOp{{Op: "echo", Params: map[string]string{"a": "b"}}, {Op: "fail"}}); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*telemetry.Registry{"container": f.container.Telemetry(), "client": clientReg} {
		if d := counters(reg); d != 0 {
			t.Fatalf("%s after canonical traffic: decode=%d", name, d)
		}
	}

	// The same request, valid but not canonical: an indented envelope (which
	// encoding/json reads as it reads any signed envelope) around a request
	// with its keys reordered (ogsi falls back).
	payload := []byte(`{"op":"echo","service":"echo","params":{"msg":"hi"},"sent":"2026-08-05T12:30:45Z"}`)
	var env gsi.Envelope
	if err := json.Unmarshal(sealRequest(t, f, payload), &env); err != nil {
		t.Fatal(err)
	}
	indented, _ := json.MarshalIndent(&env, "", " ")
	status, reply := send(t, f, indented)
	if resp := openReply(t, f, reply); status != http.StatusOK || !resp.OK {
		t.Fatalf("non-canonical request refused: %d %+v", status, resp)
	}
	if d := counters(f.container.Telemetry()); d != 1 {
		t.Fatalf("container after one non-canonical request: decode=%d, want 1", d)
	}

	// A fault message with a quote in it is escaped on the wire, which the
	// strict response decoder leaves to encoding/json: counted on the client.
	err := f.client.Call(ctx, "echo", "nope", nil, nil)
	if !IsRemoteCode(err, CodeNotFound) || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("err = %v", err)
	}
	if d := counters(clientReg); d != 1 {
		t.Fatalf("client after an escaped fault: decode=%d, want 1", d)
	}
}

// TestHandlerParamsDoNotOutliveTheCall is the aliasing proof for the pooled
// receive buffers: handlers see the right params under concurrency (run with
// -race), and what a client got back is untouched by later traffic through
// the same pools.
func TestHandlerParamsDoNotOutliveTheCall(t *testing.T) {
	f := newFabric(t, func(c *Container) {
		svc := NewService("mirror")
		svc.RegisterOp("mirror", func(_ context.Context, _ Caller, params json.RawMessage) (any, error) {
			var in struct {
				ID  int    `json:"id"`
				Pad string `json:"pad"`
			}
			if err := json.Unmarshal(params, &in); err != nil {
				return nil, Errf(CodeBadRequest, "%v", err)
			}
			if in.Pad != strings.Repeat(fmt.Sprint(in.ID%10), 64+in.ID) {
				return nil, Errf(CodeInternal, "params of request %d were overwritten: %q", in.ID, in.Pad)
			}
			return in, nil
		})
		c.AddService(svc)
	})
	type reply struct {
		ID  int    `json:"id"`
		Pad string `json:"pad"`
	}
	var wg sync.WaitGroup
	kept := make([]reply, 8)
	for g := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := g*1000 + i
				in := reply{ID: id, Pad: strings.Repeat(fmt.Sprint(id%10), 64+id)}
				var out reply
				if err := f.client.Call(context.Background(), "mirror", "mirror", in, &out); err != nil || out != in {
					t.Errorf("request %d: %v (got id %d)", id, err, out.ID)
					return
				}
				var batched reply
				if faults, err := f.client.CallBatch(context.Background(), "mirror", []BatchOp{{Op: "mirror", Params: in, Out: &batched}}); err != nil || faults != nil {
					t.Errorf("batch %d: %v %v", id, err, faults)
					return
				}
				if i == 0 {
					kept[g] = batched // compared only after everything else has run
				}
			}
		}()
	}
	wg.Wait()
	for g, out := range kept {
		if want := strings.Repeat(fmt.Sprint(0), 64+g*1000); out.ID != g*1000 || out.Pad != want {
			t.Fatalf("batch result kept by goroutine %d changed under later traffic: %+v", g, out)
		}
	}
}

// TestClientFollowsBaseURL: the endpoint is parsed once per BaseURL, not once
// per client — a caller that repoints the client is followed.
func TestClientFollowsBaseURL(t *testing.T) {
	a := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	b := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	cl := NewClient("http://"+a.addr, a.client.Cred, a.trust)
	var out map[string]string
	if err := cl.Call(context.Background(), "echo", "echo", map[string]string{"m": "1"}, &out); err != nil {
		t.Fatal(err)
	}
	cl.BaseURL = "http://" + b.addr // b trusts another CA: the call must reach it and be refused
	if err := cl.Call(context.Background(), "echo", "echo", map[string]string{"m": "1"}, &out); err == nil {
		t.Fatal("call after repointing still went to the first container")
	}
	if n := b.container.Telemetry().Snapshot().Counters["ogsi.auth.failed"]; n != 1 {
		t.Fatalf("second container saw %d refused requests, want 1", n)
	}
	cl.BaseURL = "http://bad host/"
	if err := cl.Call(context.Background(), "echo", "echo", nil, nil); err == nil || !strings.Contains(err.Error(), "build request") {
		t.Fatalf("unparsable BaseURL: %v", err)
	}
}

// selfEncoded is a wirejson.Appender whose encoding can be made to fail.
type selfEncoded struct {
	n     int
	fail  bool
	calls *int
}

func (v selfEncoded) AppendJSON(dst []byte) ([]byte, error) {
	*v.calls++
	if v.fail {
		return dst, errors.New("cannot encode")
	}
	return append(dst, fmt.Sprintf(`{"n":%d}`, v.n)...), nil
}

// txSource is an SDESource holding one element, tx:t1, whose value is
// encoded by each read.
type txSource struct {
	mu      sync.Mutex
	n       int
	at      time.Time
	encodes int
}

func (v *txSource) SDE(name string) (SDE, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if name != "tx:t1" || v.n == 0 {
		return SDE{}, false
	}
	v.encodes++
	return SDE{Name: name, Value: []byte(fmt.Sprintf(`{"n":%d}`, v.n)), Version: v.n, UpdatedAt: v.at}, true
}

func (v *txSource) SDENames(dst []string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.n == 0 {
		return dst
	}
	return append(dst, "tx:t1")
}

// set gives the element its n-th version.
func (v *txSource) set(n int, at time.Time) {
	v.mu.Lock()
	v.n, v.at = n, at
	v.mu.Unlock()
}

// TestSDESourceEncodesOnRead pins the contract of an element a service backs
// with its own state: nothing is encoded until somebody reads or watches it;
// every read path — Get, Query, LastChanged, WaitChange, a watcher — returns
// the source's value, version and update time; the source shadows a stored
// element of the same name, and Delete cannot remove what it holds.
func TestSDESourceEncodesOnRead(t *testing.T) {
	s := NewSDEStore()
	src := &txSource{}
	s.AddSource(src)
	at := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	if _, ok := s.Get("tx:t1"); ok || s.Len() != 0 {
		t.Fatal("an element the source does not hold yet is served")
	}
	for n := 1; n <= 3; n++ {
		src.set(n, at)
		s.Changed("tx:t1")
	}
	if src.encodes != 0 {
		t.Fatalf("%d encodes with no reader", src.encodes)
	}
	want := SDE{Name: "tx:t1", Value: []byte(`{"n":3}`), Version: 3, UpdatedAt: at}
	check := func(how string, sde SDE, ok bool) {
		t.Helper()
		if !ok || !reflect.DeepEqual(sde, want) {
			t.Fatalf("%s = %+v %v, want %+v", how, sde, ok, want)
		}
	}
	sde, ok := s.Get("tx:t1")
	check("Get", sde, ok)
	sde, ok = s.LastChanged()
	check("LastChanged", sde, ok)
	all := s.Query()
	check("Query", all[0], len(all) == 1)
	sde, err := s.WaitChange(context.Background(), "tx:t1", 2)
	check("WaitChange", sde, err == nil)
	if src.encodes != 4 {
		t.Fatalf("%d encodes for four reads", src.encodes)
	}

	ch, cancel := s.Watch(1)
	defer cancel()
	src.set(4, at.Add(time.Second))
	s.Changed("tx:t1")
	want = SDE{Name: "tx:t1", Value: []byte(`{"n":4}`), Version: 4, UpdatedAt: at.Add(time.Second)}
	check("watcher", <-ch, true)

	_ = s.Set("tx:t1", "stored")
	_ = s.Set("other", 1)
	s.Delete("tx:t1")
	sde, ok = s.Get("tx:t1")
	check("Get after a Set and a Delete of the name", sde, ok)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want the sourced element and the stored one", s.Len())
	}
}

// TestSDESetEncodingFailure: a value that cannot be encoded — a NaN, a func,
// an Appender that fails — fails at Set and leaves the store untouched.
func TestSDESetEncodingFailure(t *testing.T) {
	s := NewSDEStore()
	_ = s.Set("kept", "v1")
	calls := 0
	for what, v := range map[string]any{
		"NaN":              math.NaN(),
		"func":             map[string]any{"f": func() {}},
		"failing Appender": selfEncoded{fail: true, calls: &calls},
	} {
		if err := s.Set("kept", v); err == nil {
			t.Fatalf("Set of a %s succeeded", what)
		}
	}
	if sde, ok := s.Get("kept"); !ok || string(sde.Value) != `"v1"` || sde.Version != 1 {
		t.Fatalf("failed Set disturbed the element: %+v %v", sde, ok)
	}
	if all := s.Query(); len(all) != 1 || all[0].Name != "kept" {
		t.Fatalf("Query = %+v", all)
	}
	if calls != 1 {
		t.Fatalf("failing encoder ran %d times, want once", calls)
	}
}

// Delete removes an element (stored and computed forms alike; an element a
// source holds goes when the source drops it).
func (s *SDEStore) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.elements, name)
	delete(s.computed, name)
	if s.lastChanged == name {
		s.lastChanged = ""
	}
}

// Len returns the number of elements, sourced and computed ones included.
func (s *SDEStore) Len() int { return len(s.names()) }
