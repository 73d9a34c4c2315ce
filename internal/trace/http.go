package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the recorder's retained spans as a JSON array — the
// unsigned GET /trace endpoint every container exposes. Like /metrics it
// is read-only operational telemetry: span names, IDs and durations carry
// no experiment payload, so requiring a signed envelope would only stop
// dashboards and mostctl from polling it. A nil recorder serves [].
//
// Query parameters:
//
//	trace=<32 hex>  only spans of that trace
//	limit=<n>       only the n most recent matching spans
func Handler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		var spans []SpanData
		if id := r.URL.Query().Get("trace"); id != "" {
			spans = rec.Trace(id)
		} else {
			spans = rec.Spans()
		}
		if ls := r.URL.Query().Get("limit"); ls != "" {
			if n, err := strconv.Atoi(ls); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		if spans == nil {
			spans = []SpanData{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(spans)
	})
}
