package ogsi

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"neesgrid/internal/trace"
)

// TestCallCreatesClientAndServerSpans exercises the full traced round
// trip: client span → traceparent in the signed request → server span
// parented under it → retroactive gsi.verify children on both sides →
// server span echoed in the signed response.
func TestCallCreatesClientAndServerSpans(t *testing.T) {
	serverTracer := trace.NewTracer(nil, "container", trace.NewRecorder(64))
	f := newFabric(t, func(c *Container) {
		c.AddService(echoService())
		c.UseTracer(serverTracer)
	})
	f.client.Tracer = trace.NewTracer(nil, "client", trace.NewRecorder(64))

	var out map[string]string
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{"msg": "hi"}, &out); err != nil {
		t.Fatal(err)
	}

	clientSpans := f.client.Tracer.Recorder().Spans()
	var clientSpan *trace.SpanData
	for i := range clientSpans {
		if clientSpans[i].Name == "echo.echo" && clientSpans[i].Kind == trace.KindClient {
			clientSpan = &clientSpans[i]
		}
	}
	if clientSpan == nil {
		t.Fatalf("no client span recorded: %+v", clientSpans)
	}
	if clientSpan.Attrs["peer.span"] == "" {
		t.Fatal("client span did not capture the server's echoed traceparent")
	}

	serverSpans := serverTracer.Recorder().Spans()
	var serverSpan, verifySpan *trace.SpanData
	for i := range serverSpans {
		switch {
		case serverSpans[i].Name == "echo.echo" && serverSpans[i].Kind == trace.KindServer:
			serverSpan = &serverSpans[i]
		case serverSpans[i].Name == "gsi.verify":
			verifySpan = &serverSpans[i]
		}
	}
	if serverSpan == nil {
		t.Fatalf("no server span recorded: %+v", serverSpans)
	}
	if serverSpan.TraceID != clientSpan.TraceID {
		t.Fatalf("server trace %s != client trace %s", serverSpan.TraceID, clientSpan.TraceID)
	}
	if serverSpan.Parent != clientSpan.SpanID {
		t.Fatalf("server span parent %s != client span %s", serverSpan.Parent, clientSpan.SpanID)
	}
	if serverSpan.Attrs["caller"] != "/O=NEES/CN=alice" {
		t.Fatalf("server span attrs %+v", serverSpan.Attrs)
	}
	if verifySpan == nil {
		t.Fatal("no retroactive gsi.verify child span on the server")
	}
	if verifySpan.Parent != serverSpan.SpanID || verifySpan.Attrs["side"] != "request" {
		t.Fatalf("gsi.verify lineage wrong: %+v", verifySpan)
	}
	// The client side records its own gsi.verify for the response envelope.
	foundRespVerify := false
	for _, sd := range clientSpans {
		if sd.Name == "gsi.verify" && sd.Attrs["side"] == "response" && sd.Parent == clientSpan.SpanID {
			foundRespVerify = true
		}
	}
	if !foundRespVerify {
		t.Fatalf("no client-side gsi.verify span: %+v", clientSpans)
	}
}

// TestUntracedClientStillPropagatesContext: a caller span in ctx must
// reach the server even when the ogsi.Client itself has no tracer.
func TestUntracedClientStillPropagatesContext(t *testing.T) {
	serverTracer := trace.NewTracer(nil, "container", trace.NewRecorder(64))
	f := newFabric(t, func(c *Container) {
		c.AddService(echoService())
		c.UseTracer(serverTracer)
	})
	callerTracer := trace.NewTracer(nil, "caller", trace.NewRecorder(8))
	ctx, span := callerTracer.Start(context.Background(), "outer", trace.KindInternal)
	if err := f.client.Call(ctx, "echo", "echo", map[string]string{}, nil); err != nil {
		t.Fatal(err)
	}
	span.End()
	for _, sd := range serverTracer.Recorder().Spans() {
		if sd.Kind == trace.KindServer && sd.Parent == span.Context().SpanID.String() {
			return
		}
	}
	t.Fatalf("server span not parented under the caller's span: %+v", serverTracer.Recorder().Spans())
}

func TestTraceEndpoint(t *testing.T) {
	serverTracer := trace.NewTracer(nil, "container", trace.NewRecorder(64))
	f := newFabric(t, func(c *Container) {
		c.AddService(echoService())
		c.UseTracer(serverTracer)
	})
	f.client.Tracer = trace.NewTracer(nil, "client", trace.NewRecorder(64))
	if err := f.client.Call(context.Background(), "echo", "echo", map[string]string{}, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + f.addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []trace.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("GET /trace returned no spans")
	}
	// Filter by the trace id of the first span.
	resp2, err := http.Get("http://" + f.addr + "/trace?trace=" + spans[0].TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var filtered []trace.SpanData
	if err := json.NewDecoder(resp2.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) == 0 {
		t.Fatal("trace filter dropped everything")
	}
	for _, sd := range filtered {
		if sd.TraceID != spans[0].TraceID {
			t.Fatalf("filter leaked span of trace %s", sd.TraceID)
		}
	}
}

func TestTraceEndpointWithoutTracer(t *testing.T) {
	f := newFabric(t, func(c *Container) { c.AddService(echoService()) })
	resp, err := http.Get("http://" + f.addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []trace.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("tracerless container served %d spans", len(spans))
	}
}
