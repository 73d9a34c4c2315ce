package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"neesgrid/internal/telemetry"
)

// Mux builds the aggregator's HTTP surface:
//
//	GET  /fleet    full FleetView JSON (per-site health, merged snapshot,
//	               rates, SLO states) — what `mostctl top` polls
//	GET  /metrics  merged fleet telemetry: JSON telemetry.Snapshot by
//	               default (so `mostctl metrics -url` works unchanged), or
//	               Prometheus text on Accept: text/plain with fleet-wide
//	               series first and per-site series labeled {site="..."}
//	GET  /slo      machine-readable Verdict JSON (exit-code material for
//	               SLO-gated CI runs)
//	GET  /series?metric=<name>  ringed values for one metric (sparklines)
//
// It has no write: pushed roll-ups arrive in-process through Push.
func (a *Aggregator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "obs: GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, a.Fleet())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "obs: GET only", http.StatusMethodNotAllowed)
			return
		}
		if strings.Contains(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", telemetry.PrometheusContentType)
			a.writePrometheus(w)
			return
		}
		writeJSON(w, a.Merged())
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "obs: GET only", http.StatusMethodNotAllowed)
			return
		}
		v := a.Verdict()
		if !v.OK {
			// Breached verdicts stay 200: the verdict is the payload, not
			// an endpoint failure. CI inspects .ok.
			w.Header().Set("X-SLO-Breached", "true")
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("metric")
		if name == "" {
			http.Error(w, "obs: ?metric= required", http.StatusBadRequest)
			return
		}
		vs := a.Series(name)
		if vs == nil {
			vs = []float64{}
		}
		writeJSON(w, map[string]any{"metric": name, "values": vs})
	})
	return mux
}

// writePrometheus emits the fleet exposition: merged series (with TYPE
// declarations) first, then every fresh site's series labeled with its
// name.
func (a *Aggregator) writePrometheus(w http.ResponseWriter) {
	a.mu.Lock()
	view := a.buildFleetLocked()
	type labeled struct {
		name string
		snap telemetry.Snapshot
	}
	var sites []labeled
	for _, name := range a.order {
		st := a.sites[name]
		if !st.lastOK.IsZero() {
			sites = append(sites, labeled{name, st.last})
		}
	}
	a.mu.Unlock()

	_ = telemetry.WritePrometheus(w, view.Merged)
	for _, s := range sites {
		_ = telemetry.WritePrometheusLabeled(w, s.snap, "site", s.name)
	}
	// The aggregator's own health series ride along so a scraper sees the
	// observer too.
	fmt.Fprintf(w, "# TYPE obs_site_up gauge\n")
	for _, h := range view.Sites {
		up := 0
		if h.State == StateOK {
			up = 1
		}
		fmt.Fprintf(w, "obs_site_up{site=%q} %d\n", h.Name, up)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
