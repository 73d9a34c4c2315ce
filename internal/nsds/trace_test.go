package nsds

import (
	"context"
	"testing"

	"neesgrid/internal/trace"
)

func TestPublishBatchContextRecordsChildSpan(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	tr := trace.NewTracer("site", trace.NewRecorder(16))
	hub.UseTracer(tr)

	sub, err := hub.SubscribeBatches(8, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	parentTracer := trace.NewTracer("coordinator", trace.NewRecorder(16))
	ctx, parent := parentTracer.Start(context.Background(), "coord.step", trace.KindInternal)
	hub.PublishBatchContext(ctx, []Sample{
		{Channel: "a", T: 0.01, Value: 1},
		{Channel: "b", T: 0.01, Value: 2},
	})
	parent.End()

	spans := tr.Recorder().Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sd := spans[0]
	if sd.Name != "nsds.publish" || sd.Parent != parent.Context().SpanID.String() {
		t.Fatalf("span %+v not a child of the step span", sd)
	}
	if sd.Attrs["samples"] != "2" || sd.Attrs["subscribers"] != "1" || sd.Attrs["dropped"] != "0" {
		t.Fatalf("span attrs %+v", sd.Attrs)
	}
	if got := len((<-sub.Batches()).Samples); got != 2 {
		t.Fatalf("subscriber got %d samples", got)
	}

	// Without a parent span in ctx no span is recorded (no orphan roots).
	hub.PublishBatchContext(context.Background(), []Sample{{Channel: "a", T: 0.02, Value: 3}})
	if got := len(tr.Recorder().Spans()); got != 1 {
		t.Fatalf("orphan publish recorded a span: %d total", got)
	}
}
