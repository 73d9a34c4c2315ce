package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// SLO is one service-level objective evaluated continuously against the
// merged fleet view. Exactly one of Quantile/Rate/Gauge semantics applies,
// chosen by Kind:
//
//   - "quantile": Metric names a histogram; the rule breaches when the
//     merged quantile Q exceeds Max (seconds, for latency histograms).
//   - "rate": Metric names a counter (or histogram with ".count"); the
//     rule breaches when its per-second rate over Window exceeds Max.
//   - "gauge": Metric names a gauge; breaches when the merged (summed)
//     value exceeds Max.
//
// Rules serialize as JSON so `coordinator -slo rules.json` and the CI
// smoke share one format; Window is given in seconds on the wire.
type SLO struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Metric string  `json:"metric"`
	Q      float64 `json:"q,omitempty"`
	Max    float64 `json:"max"`
	// WindowSeconds scopes rate computation; 0 means the whole ring.
	WindowSeconds float64 `json:"window_seconds,omitempty"`
}

// Kinds of SLO rule.
const (
	KindQuantile = "quantile"
	KindRate     = "rate"
	KindGauge    = "gauge"
)

// Validate rejects malformed rules before they are armed.
func (s SLO) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("obs: slo rule missing name")
	}
	if s.Metric == "" {
		return fmt.Errorf("obs: slo %s: missing metric", s.Name)
	}
	switch s.Kind {
	case KindQuantile:
		if s.Q <= 0 || s.Q > 1 {
			return fmt.Errorf("obs: slo %s: quantile q=%g out of (0,1]", s.Name, s.Q)
		}
	case KindRate, KindGauge:
	default:
		return fmt.Errorf("obs: slo %s: unknown kind %q", s.Name, s.Kind)
	}
	return nil
}

// LoadSLOFile parses a JSON array of SLO rules.
func LoadSLOFile(path string) ([]SLO, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rules []SLO
	if err := json.Unmarshal(b, &rules); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// RuleStatus is one rule's live evaluation state.
type RuleStatus struct {
	SLO
	// State is "ok", "breach", or "no_data" (metric absent so far).
	State string `json:"state"`
	// Value is the most recent evaluated value (quantile, rate, or gauge).
	Value float64 `json:"value"`
	// Worst is the worst value seen since the aggregator started.
	Worst    float64 `json:"worst"`
	Breaches int64   `json:"breaches"`
	// FirstBreach/LastBreach bound the breach history.
	FirstBreach time.Time `json:"first_breach,omitzero"`
	LastBreach  time.Time `json:"last_breach,omitzero"`
	// ExemplarTrace is the offending histogram's retained exemplar trace
	// ID at breach time — the handle `mostctl trace <id>` resolves.
	ExemplarTrace string `json:"exemplar_trace,omitempty"`
	// Profiles are pprof captures triggered by this rule's first breach,
	// one per source with a -pprof mux.
	Profiles []string `json:"profiles,omitempty"`
}

// Verdict is the machine-readable outcome of a run's SLO evaluation.
type Verdict struct {
	TS    time.Time    `json:"ts"`
	OK    bool         `json:"ok"`
	Rules []RuleStatus `json:"rules"`
}

// ruleState is a rule plus its accumulated evaluation history.
type ruleState struct {
	RuleStatus
	profileStarted bool
}

func newRuleState(s SLO) *ruleState {
	return &ruleState{RuleStatus: RuleStatus{SLO: s, State: "no_data"}}
}

// evalSLOLocked evaluates every rule against the freshly merged view.
// Caller holds a.mu.
func (a *Aggregator) evalSLOLocked(view FleetView) {
	for _, rs := range a.slo {
		v, ok := a.ruleValueLocked(rs.SLO, view)
		if !ok {
			if rs.State == "" || rs.State == "no_data" {
				rs.State = "no_data"
			}
			continue
		}
		rs.Value = v
		if v > rs.Worst {
			rs.Worst = v
		}
		if v <= rs.Max {
			// A past breach is history, not a live state: the dashboard
			// shows recovery while the verdict still reports Breaches > 0.
			rs.State = "ok"
			continue
		}
		rs.Breaches++
		rs.LastBreach = view.TS
		if rs.FirstBreach.IsZero() {
			rs.FirstBreach = view.TS
		}
		rs.State = "breach"
		if h, ok := view.Merged.Histograms[rs.Metric]; ok && h.Exemplar != nil {
			rs.ExemplarTrace = h.Exemplar.TraceID
		}
		a.reg.Counter("obs.slo.breaches").Inc()
		a.reg.Event("obs", "slo-breach", map[string]any{
			"rule":   rs.Name,
			"metric": rs.Metric,
			"value":  v,
			"max":    rs.Max,
			"trace":  rs.ExemplarTrace,
		})
		if !rs.profileStarted && a.cfg.ProfileDir != "" {
			rs.profileStarted = true
			go a.captureProfiles(rs.Name)
		}
	}
}

// ruleValueLocked extracts a rule's current value from the merged view.
// Caller holds a.mu.
func (a *Aggregator) ruleValueLocked(s SLO, view FleetView) (float64, bool) {
	switch s.Kind {
	case KindQuantile:
		h, ok := view.Merged.Histograms[s.Metric]
		if !ok || h.Count == 0 {
			return 0, false
		}
		return h.Quantile(s.Q), true
	case KindRate:
		r, ok := a.rings[s.Metric]
		if !ok {
			return 0, false
		}
		return r.rate(view.TS, time.Duration(s.WindowSeconds*float64(time.Second))), true
	case KindGauge:
		v, ok := view.Merged.Gauges[s.Metric]
		return v, ok
	}
	return 0, false
}

// sloStatusLocked snapshots the rule states. Caller holds a.mu.
func (a *Aggregator) sloStatusLocked() []RuleStatus {
	if len(a.slo) == 0 {
		return nil
	}
	out := make([]RuleStatus, len(a.slo))
	for i, rs := range a.slo {
		out[i] = rs.RuleStatus
		out[i].Profiles = append([]string(nil), rs.Profiles...)
	}
	return out
}

// Verdict reports the run's SLO outcome: OK only when no rule ever
// breached. With no rules configured the verdict is trivially OK.
func (a *Aggregator) Verdict() Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := Verdict{TS: a.now(), OK: true, Rules: a.sloStatusLocked()}
	for _, r := range v.Rules {
		if r.Breaches > 0 {
			v.OK = false
		}
	}
	return v
}

// Rollup is a run's observability roll-up, archived as <run>-metrics.json
// beside its response history or span snapshot: the fleet view from a
// final end-of-run scrape (per-site health, merged cross-site metrics with
// exact quantiles and exemplars, rates) plus the latched SLO verdict.
// Machine-readable, so CI can gate a run on `.verdict.ok` without
// re-running anything.
type Rollup struct {
	Run      string    `json:"run"`
	Finished time.Time `json:"finished"`
	Fleet    FleetView `json:"fleet"`
	Verdict  Verdict   `json:"verdict"`
}

// Rollup snapshots the fleet view and verdict for run. Call ScrapeOnce
// first so that it reflects the finished run.
func (a *Aggregator) Rollup(run string) Rollup {
	return Rollup{Run: run, Finished: a.now(), Fleet: a.Fleet(), Verdict: a.Verdict()}
}

// WriteFile writes the roll-up to path as indented JSON.
func (r Rollup) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: roll-up %s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o644)
}

// captureProfiles pulls a goroutine profile from every source exposing a
// -pprof mux and records the file paths on the rule. Runs detached from
// the scrape loop: profile capture must never stall merging.
func (a *Aggregator) captureProfiles(rule string) {
	a.mu.Lock()
	type target struct{ name, url string }
	var targets []target
	for _, name := range a.order {
		if f := a.sites[name].src.PprofURL; f != nil {
			if u := f(); u != "" {
				targets = append(targets, target{name, u})
			}
		}
	}
	dir := a.cfg.ProfileDir
	a.mu.Unlock()

	var paths []string
	for _, t := range targets {
		url := strings.TrimSuffix(t.url, "/") + "/debug/pprof/goroutine?debug=1"
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		path, err := a.fetchProfile(ctx, url, filepath.Join(dir, fmt.Sprintf("slo-%s-%s.goroutine.txt", sanitize(rule), sanitize(t.name))))
		cancel()
		if err != nil {
			a.reg.Event("obs", "slo-profile-failed", map[string]any{"rule": rule, "site": t.name, "error": err.Error()})
			continue
		}
		paths = append(paths, path)
	}
	a.mu.Lock()
	for _, rs := range a.slo {
		if rs.Name == rule {
			rs.Profiles = append(rs.Profiles, paths...)
		}
	}
	a.mu.Unlock()
	if len(paths) > 0 {
		a.reg.Event("obs", "slo-profile-captured", map[string]any{"rule": rule, "files": len(paths)})
	}
}

// fetchProfile downloads one pprof endpoint to path.
func (a *Aggregator) fetchProfile(ctx context.Context, url, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if _, err := f.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return path, nil
}

// sanitize maps a name onto a filesystem-safe slug.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}
