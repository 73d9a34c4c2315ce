package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestIDGeneration(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !id.IsValid() {
			t.Fatal("zero trace id")
		}
		s := id.String()
		if len(s) != 32 {
			t.Fatalf("trace id %q not 32 hex chars", s)
		}
		if seen[s] {
			t.Fatalf("duplicate trace id %s", s)
		}
		seen[s] = true
	}
	if NewSpanID() == NewSpanID() {
		t.Fatal("consecutive span ids collided")
	}
	var zero TraceID
	if zero.String() != "" {
		t.Fatal("zero trace id should render empty")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tp := sc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q not 55 chars", tp)
	}
	back, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatal(err)
	}
	if back != sc {
		t.Fatalf("round trip %+v != %+v", back, sc)
	}
	if (SpanContext{}).Traceparent() != "" {
		t.Fatal("invalid context should render empty traceparent")
	}
	for _, bad := range []string{
		"",
		"00-short-short-01",
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-zzzzzzzzzzzzzzzz-01",
		"00-00000000000000000000000000000000-0000000000000000-01",
		tp[:54],
		tp + "0",
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestStartPropagatesParent(t *testing.T) {
	tr := NewTracer("svc", NewRecorder(16))
	ctx, root := tr.Start(context.Background(), "root", KindInternal)
	_, child := tr.Start(ctx, "child", KindClient)
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child not in parent's trace")
	}
	child.End()
	root.End()
	spans := tr.Recorder().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	// child ended first, so spans[0] is the child.
	if spans[0].Parent != root.Context().SpanID.String() {
		t.Fatalf("child parent %q != root span %q", spans[0].Parent, root.Context().SpanID)
	}
	if spans[1].Parent != "" {
		t.Fatalf("root has parent %q", spans[1].Parent)
	}
	if spans[0].Service != "svc" || spans[0].Kind != KindClient {
		t.Fatalf("child metadata %+v", spans[0])
	}
}

func TestRemoteParent(t *testing.T) {
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr := NewTracer("server", NewRecorder(4))
	ctx := ContextWithRemote(context.Background(), remote)
	if got := SpanContextFromContext(ctx); got != remote {
		t.Fatalf("remote context %+v", got)
	}
	_, span := tr.Start(ctx, "serve", KindServer)
	if span.Context().TraceID != remote.TraceID {
		t.Fatal("server span not in remote trace")
	}
	span.End()
	sd := tr.Recorder().Spans()[0]
	if sd.Parent != remote.SpanID.String() {
		t.Fatalf("server span parent %q != remote span %q", sd.Parent, remote.SpanID)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "x", KindInternal)
	if span != nil {
		t.Fatal("nil tracer produced a span")
	}
	if ctx == nil {
		t.Fatal("nil tracer dropped the context")
	}
	// All nil-span methods must be no-ops, not panics.
	span.SetAttr("k", "v")
	span.Annotate("e", "d")
	span.SetError(errors.New("boom"))
	span.End()
	if span.Context().IsValid() {
		t.Fatal("nil span has a context")
	}
	tr.RecordSpan(SpanContext{}, "n", KindInternal, time.Now(), time.Now())
	if tr.Recorder() != nil || tr.Service() != "" {
		t.Fatal("nil tracer accessors")
	}
	var rec *Recorder
	rec.Record(SpanData{})
	if rec.Spans() != nil || rec.Dropped() != 0 {
		t.Fatal("nil recorder accessors")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("span from empty context")
	}
}

func TestSpanAttrsEventsError(t *testing.T) {
	tr := NewTracer("svc", NewRecorder(4))
	_, span := tr.Start(context.Background(), "op", KindInternal)
	span.SetAttr("tx", "step-1")
	span.Annotate("faultnet.delay", "25ms")
	span.SetError(errors.New("injected"))
	span.End()
	// Post-End mutation must not land.
	span.SetAttr("late", "1")
	span.Annotate("late", "")
	span.End()
	spans := tr.Recorder().Spans()
	if len(spans) != 1 {
		t.Fatalf("End twice recorded %d spans", len(spans))
	}
	sd := spans[0]
	if sd.Attrs["tx"] != "step-1" || sd.Attrs["late"] != "" {
		t.Fatalf("attrs %+v", sd.Attrs)
	}
	if len(sd.Events) != 1 || sd.Events[0].Name != "faultnet.delay" {
		t.Fatalf("events %+v", sd.Events)
	}
	if sd.Err != "injected" {
		t.Fatalf("err %q", sd.Err)
	}
	if sd.End.Before(sd.Start) {
		t.Fatal("span ends before it starts")
	}
}

// TestSpanAttrsSpillPastTheInlineArray: attributes beyond the inline few,
// and repeated keys on either side of the spill, read back with map
// semantics, through SetAttr and RecordSpan alike.
func TestSpanAttrsSpillPastTheInlineArray(t *testing.T) {
	tr := NewTracer("svc", NewRecorder(4))
	// k1 is rewritten while inline, k6 after it spilled.
	pairs := []Attr{{"k0", "v0"}, {"k1", "stale"}, {"k2", "v2"}, {"k3", "v3"},
		{"k4", "v4"}, {"k5", "v5"}, {"k6", "stale"}, {"k1", "v1"}, {"k6", "v6"}}
	want := map[string]string{"k0": "v0", "k1": "v1", "k2": "v2", "k3": "v3", "k4": "v4", "k5": "v5", "k6": "v6"}

	_, span := tr.Start(context.Background(), "op", KindInternal)
	for _, kv := range pairs {
		span.SetAttr(kv.Key, kv.Value)
	}
	span.End()
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr.RecordSpan(parent, "retro", KindInternal, time.Now(), time.Now(), pairs...)
	tr.RecordSpan(parent, "bare", KindInternal, time.Now(), time.Now())

	spans := tr.Recorder().Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	for _, sd := range spans[:2] {
		if !reflect.DeepEqual(sd.Attrs, want) {
			t.Fatalf("%s attrs\n got  %v\n want %v", sd.Name, sd.Attrs, want)
		}
	}
	if spans[2].Attrs != nil {
		t.Fatalf("a span with no attributes reads %v", spans[2].Attrs)
	}
}

// TestSpanAllocations holds a span's cost to its two allocations, the span
// and the context that carries it: attributes stay inline until a snapshot.
func TestSpanAllocations(t *testing.T) {
	tr := NewTracer("svc", NewRecorder(64))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, span := tr.Start(ctx, "ntcp.propose", KindInternal)
		span.SetAttr("tx", "run/step-1/uiuc")
		span.SetAttr("plugin", "core.SubstructurePlugin")
		span.End()
	})
	if allocs > 2 {
		t.Fatalf("Start / SetAttr x2 / End allocates %.0f times, ceiling 2", allocs)
	}
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	now := time.Now()
	allocs = testing.AllocsPerRun(1000, func() {
		tr.RecordSpan(parent, "gsi.verify", KindInternal, now, now,
			Attr{"side", "request"}, Attr{"mode", "mac"}, Attr{"cached", "false"})
	})
	if allocs != 0 {
		t.Fatalf("RecordSpan with three attributes allocates %.0f times, want 0", allocs)
	}
}

func TestRecordSpanRetroactive(t *testing.T) {
	tr := NewTracer("site", NewRecorder(4))
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	start := time.Now().Add(-time.Millisecond)
	end := time.Now()
	attrs := []Attr{{"identity", "coordinator"}}
	tr.RecordSpan(parent, "gsi.verify", KindInternal, start, end, attrs...)
	attrs[0].Value = "mutated-after-call"
	spans := tr.Recorder().Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d", len(spans))
	}
	sd := spans[0]
	if sd.Parent != parent.SpanID.String() || sd.TraceID != parent.TraceID.String() {
		t.Fatalf("lineage %+v", sd)
	}
	if sd.Attrs["identity"] != "coordinator" {
		t.Fatal("attrs not defensively copied")
	}
	// Invalid parent drops silently.
	tr.RecordSpan(SpanContext{}, "orphan", KindInternal, start, end)
	if len(tr.Recorder().Spans()) != 1 {
		t.Fatal("orphan span recorded")
	}
}

func TestRecorderRingWraps(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Record(SpanData{Name: fmt.Sprintf("s%d", i)})
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d", len(spans))
	}
	for i, sd := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sd.Name != want {
			t.Fatalf("slot %d = %q, want %q (oldest-first order broken)", i, sd.Name, want)
		}
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", rec.Dropped())
	}
}

func TestRecorderTraceFilter(t *testing.T) {
	rec := NewRecorder(8)
	a, b := NewTraceID().String(), NewTraceID().String()
	rec.Record(SpanData{TraceID: a, Name: "one"})
	rec.Record(SpanData{TraceID: b, Name: "two"})
	rec.Record(SpanData{TraceID: a, Name: "three"})
	got := rec.Trace(a)
	if len(got) != 2 || got[0].Name != "one" || got[1].Name != "three" {
		t.Fatalf("filter returned %+v", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer("svc", NewRecorder(64))
	ctx, root := tr.Start(context.Background(), "root", KindInternal)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := tr.Start(ctx, "child", KindInternal)
			sp.SetAttr("i", fmt.Sprint(i))
			root.Annotate("spawn", fmt.Sprint(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Recorder().Spans()); got != 9 {
		t.Fatalf("recorded %d spans", got)
	}
}

func TestHandler(t *testing.T) {
	rec := NewRecorder(8)
	tid := NewTraceID().String()
	rec.Record(SpanData{TraceID: tid, SpanID: NewSpanID().String(), Name: "a"})
	rec.Record(SpanData{TraceID: NewTraceID().String(), SpanID: NewSpanID().String(), Name: "b"})
	srv := httptest.NewServer(Handler(rec))
	defer srv.Close()

	fetch := func(url string) []SpanData {
		t.Helper()
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var spans []SpanData
		if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
			t.Fatal(err)
		}
		return spans
	}

	if got := fetch(srv.URL); len(got) != 2 {
		t.Fatalf("all spans: %d", len(got))
	}
	got := fetch(srv.URL + "?trace=" + tid)
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("filtered: %+v", got)
	}
	if got := fetch(srv.URL + "?limit=1"); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("limited: %+v", got)
	}
	if got := fetch(srv.URL + "?trace=none"); len(got) != 0 {
		t.Fatalf("no-match filter: %+v", got)
	}
	resp, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST status %d", resp.StatusCode)
	}

	// A process with no recorder serves an empty array, not null.
	none := httptest.NewServer(Handler(nil))
	defer none.Close()
	resp, err = none.Client().Get(none.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "[]\n" {
		t.Fatalf("nil recorder: %d %q, want 200 \"[]\\n\"", resp.StatusCode, body)
	}
}

// TestSpanJSONUnchangedByLazyIDs: spans keep their IDs in binary until a
// snapshot is taken, and the snapshot — SpanData, its JSON, the traceparent
// — is what it was when IDs were hex-encoded at Start.
func TestSpanJSONUnchangedByLazyIDs(t *testing.T) {
	rec := NewRecorder(8)
	tr := NewTracer("coordinator", rec)
	at := time.Date(2026, 8, 5, 12, 30, 45, 0, time.UTC)
	tr.SetClock(func() time.Time { return at })

	ctx, root := tr.Start(context.Background(), "coord.step", KindInternal)
	_, child := tr.Start(ctx, "ntcp.propose", KindClient)
	child.SetAttr("tx", "step-1")
	child.End()
	tr.RecordSpan(root.Context(), "gsi.verify", KindInternal, at, at.Add(time.Millisecond), Attr{"cached", "true"})
	root.End()

	rsc, csc := root.Context(), child.Context()
	for round := 0; round < 2; round++ { // the second snapshot reads the memoised hex form
		spans := rec.Spans()
		if len(spans) != 3 {
			t.Fatalf("recorded %d spans", len(spans))
		}
		got, err := json.Marshal(spans[0])
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"trace_id":"%x","span_id":"%x","parent_id":"%x","service":"coordinator","name":"ntcp.propose","kind":"client",`+
			`"start":"2026-08-05T12:30:45Z","end":"2026-08-05T12:30:45Z","attrs":{"tx":"step-1"}}`,
			rsc.TraceID[:], csc.SpanID[:], rsc.SpanID[:])
		if string(got) != want {
			t.Fatalf("round %d:\ngot  %s\nwant %s", round, got, want)
		}
		if retro := spans[1]; retro.TraceID != rsc.TraceID.String() || retro.Parent != rsc.SpanID.String() || len(retro.SpanID) != 16 {
			t.Fatalf("retroactive span lineage: %+v", retro)
		}
		if rootData := spans[2]; rootData.SpanID != rsc.SpanID.String() || rootData.Parent != "" {
			t.Fatalf("root span: %+v", rootData)
		}
		if byTrace := rec.Trace(rsc.TraceID.String()); len(byTrace) != 3 {
			t.Fatalf("trace filter found %d spans", len(byTrace))
		}
	}

	// The appended traceparent is the string one, with nothing for an
	// invalid context.
	if got := string(csc.AppendTraceparent([]byte("x"))); got != "x"+csc.Traceparent() || len(csc.Traceparent()) != 55 {
		t.Fatalf("AppendTraceparent = %q, Traceparent = %q", got, csc.Traceparent())
	}
	if got := (SpanContext{}).AppendTraceparent([]byte("x")); string(got) != "x" || (SpanContext{}).Traceparent() != "" {
		t.Fatalf("invalid context rendered %q", got)
	}
	if back, err := ParseTraceparent(csc.Traceparent()); err != nil || back != csc {
		t.Fatalf("round trip: %+v %v", back, err)
	}
}

// Record appends a finished span, evicting the oldest when full. Safe on
// a nil recorder (drops).
func (r *Recorder) Record(sd SpanData) { r.put(slot{sd: sd}) }

// Service returns the service name spans are attributed to.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// SetClock overrides the time source (tests only).
func (t *Tracer) SetClock(clock func() time.Time) {
	if t != nil && clock != nil {
		t.clock = clock
	}
}
