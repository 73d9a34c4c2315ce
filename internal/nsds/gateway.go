package nsds

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// gatewayKeepAlive is the idle interval between SSE comment keepalives.
const gatewayKeepAlive = 15 * time.Second

// Gateway serves a hub to browser-class viewers over HTTP Server-Sent
// Events — the commodity-HTTP observer tier (the paper's Fig. 10 audience,
// scaled). Each connection is one subscription with the same best-effort
// contract as every other tier: a viewer that cannot keep up loses batches
// at its own subscription and the cumulative per-connection drop count
// rides along in every event, so a dashboard can say "you have missed N
// samples" honestly.
//
//	GET /stream?channels=a,b&catchup=1&buffer=1024
//
// responds with text/event-stream; each event is
//
//	id: <last sequence in the event>
//	event: samples
//	data: {"samples":[...],"dropped":<cumulative drops>}
//
// and comment keepalives flow every 15 s while the stream is idle. buffer
// is in batches and capped at 4096; a write that cannot complete within
// DefaultWriteTimeout disconnects the viewer.
type Gateway struct {
	hub *Hub
}

// NewGateway wraps a hub.
func NewGateway(hub *Hub) *Gateway { return &Gateway{hub: hub} }

// sseEvent is one data payload: a delivered batch plus the connection's
// cumulative drop count.
type sseEvent struct {
	Samples []Sample `json:"samples"`
	Dropped uint64   `json:"dropped"`
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "nsds: GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	var channels []string
	for _, c := range strings.Split(q.Get("channels"), ",") {
		if c = strings.TrimSpace(c); c != "" {
			channels = append(channels, c)
		}
	}
	buffer := 1024
	if v := q.Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "nsds: bad buffer", http.StatusBadRequest)
			return
		}
		buffer = n
	}
	catchUp := q.Get("catchup") == "1" || q.Get("catchup") == "true"

	sub, err := g.hub.SubscribeBatches(buffer, catchUp, channels...)
	if err != nil {
		http.Error(w, "nsds: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return
	}

	write := func(b *Batch) error { return writeSSE(w, b, sub.Dropped()) }
	ka := time.NewTicker(gatewayKeepAlive)
	defer ka.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ka.C:
			armDeadline(rc.SetWriteDeadline, DefaultWriteTimeout)
			if _, err := fmt.Fprintf(w, ": keepalive dropped=%d\n\n", sub.Dropped()); err != nil || rc.Flush() != nil {
				return
			}
		case b, ok := <-sub.Batches():
			if !ok || !writeBurst(b, sub.Batches(), DefaultWriteTimeout, rc.SetWriteDeadline, write, rc.Flush) {
				return
			}
		}
	}
}

func writeSSE(w http.ResponseWriter, b *Batch, dropped uint64) error {
	payload, err := json.Marshal(sseEvent{Samples: b.Samples, Dropped: dropped})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: samples\ndata: %s\n\n",
		b.Samples[len(b.Samples)-1].Seq, payload)
	return err
}
