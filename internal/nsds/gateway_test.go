package nsds

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// readSSEEvents collects data payloads from an SSE stream until n events
// arrive or the deadline passes.
func readSSEEvents(t *testing.T, stream io.ReadCloser, n int, d time.Duration) []sseEvent {
	t.Helper()
	var events []sseEvent
	// The deadline closes the stream, which ends a Scan blocked on a quiet
	// one: with fewer than n events, the wait is d, not the gap to the
	// gateway's next keep-alive.
	defer time.AfterFunc(d, func() { _ = stream.Close() }).Stop()
	body := bufio.NewScanner(stream)
	for len(events) < n {
		if !body.Scan() {
			break
		}
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev sseEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

func TestGatewayStreamsSSE(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	hub.SetRetention(16)
	publishOne(hub, Sample{Channel: "a", T: 0, Value: 1})

	gw := NewGateway(hub)
	ts := httptest.NewServer(gw)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream?channels=a&catchup=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type = %q", ct)
	}
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })
	hub.PublishBatch([]Sample{{Channel: "a", T: 1, Value: 2}, {Channel: "b", T: 1, Value: 3}})

	events := readSSEEvents(t, resp.Body, 2, 5*time.Second)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (catch-up + live)", len(events))
	}
	if len(events[0].Samples) != 1 || events[0].Samples[0].Seq != 1 {
		t.Fatalf("catch-up event = %+v", events[0])
	}
	// The live event is channel-filtered: only "a" samples.
	if len(events[1].Samples) != 1 || events[1].Samples[0].Value != 2 {
		t.Fatalf("live event = %+v", events[1])
	}
}

func TestGatewayDisconnectCancelsSubscription(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	ts := httptest.NewServer(NewGateway(hub))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })
	resp.Body.Close()
	waitFor(t, 5*time.Second, func() bool { return hub.Subscribers() == 0 })
}

func TestGatewayRejectsBadRequests(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	ts := httptest.NewServer(NewGateway(hub))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/stream", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stream?buffer=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad buffer status = %d", resp.StatusCode)
	}
}

// Gateway-tier best effort: a browser that stops reading drops batches at
// its own subscription; the publish path never blocks, and the drop count
// is visible in the events that do get through.
func TestGatewayBestEffortDropCounter(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	ts := httptest.NewServer(NewGateway(hub))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stream?buffer=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, time.Second, func() bool { return hub.Subscribers() == 1 })

	// Flood: the connection's 1-batch buffer plus HTTP buffering cannot
	// keep up, so later batches drop. Publishing must complete promptly.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			hub.PublishBatch([]Sample{{Channel: "a", T: float64(i)}})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow SSE viewer")
	}
	events := readSSEEvents(t, resp.Body, 3, 5*time.Second)
	if len(events) == 0 {
		t.Fatal("no events arrived")
	}
	var maxDropped uint64
	for _, ev := range events {
		if ev.Dropped > maxDropped {
			maxDropped = ev.Dropped
		}
	}
	if maxDropped == 0 {
		t.Fatal("drop counter never surfaced in events despite flooding")
	}
}
