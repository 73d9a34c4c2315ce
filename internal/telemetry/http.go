package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
)

// Handler serves a registry's live snapshot over HTTP. It is the one
// metrics endpoint shape shared by every daemon: the default rendering is
// indented JSON (what `mostctl metrics` and humans with curl read); a
// client whose Accept header asks for text/plain — a Prometheus scraper —
// gets the text exposition format instead.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "telemetry: GET only", http.StatusMethodNotAllowed)
			return
		}
		s := reg.Snapshot()
		if strings.Contains(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = WritePrometheus(w, s)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s)
	})
}
