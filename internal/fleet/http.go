package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Mux builds the scheduler's HTTP surface — the API `mostctl fleet` talks
// to:
//
//	POST /submit        JSON Request body → JobView (202)
//	GET  /jobs          every job in submission order
//	GET  /job?id=<id>   one job
//	POST /cancel?id=    withdraw a job
//	GET  /grants        tenants in grant order (the fairness observable)
//
// Everything else falls through to the aggregator handler when one is
// given — fleetd passes its obs mux, so /fleet, /metrics, /slo and /series
// share the API listener.
func (s *Scheduler) Mux(agg http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "fleet: POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("fleet: decode: %v", err), http.StatusBadRequest)
			return
		}
		job, err := s.Submit(req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrQueueFull) {
				// Admission pushback, not a malformed request: the tenant's
				// backlog is full, try again after a job drains.
				status = http.StatusTooManyRequests
			}
			http.Error(w, err.Error(), status)
			return
		}
		view, _ := s.Job(job.ID)
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, view)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "fleet: GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, s.Jobs())
	})
	mux.HandleFunc("/job", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "fleet: GET only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("id")
		view, ok := s.Job(id)
		if !ok {
			http.Error(w, fmt.Sprintf("fleet: no such job %q", id), http.StatusNotFound)
			return
		}
		writeJSON(w, view)
	})
	mux.HandleFunc("/cancel", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "fleet: POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("id")
		if err := s.Cancel(id); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/grants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "fleet: GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, s.GrantOrder())
	})
	if agg != nil {
		mux.Handle("/", agg)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
