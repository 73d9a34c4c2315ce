package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRecord is one benchmark-owned span: a timed call into a layer's public
// surface. Spans of one step, scan, job or block share a Trace id.
type spanRecord struct {
	Name   string  `json:"name"`
	Trace  int64   `json:"trace"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 = root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass pays one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open spanRecord.
type span struct {
	t     *tracer
	name  string
	trace int64
	id    int64
	par   int64
	start time.Time
}

// start opens a span under parent (nil = root of trace id trace).
func (t *tracer) start(name string, trace int64, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{t: t, name: name, trace: trace, id: id, start: time.Now()}
	if parent != nil {
		s.par, s.trace = parent.id, parent.trace
	}
	return s
}

func (s *span) end() {
	if s != nil {
		s.endAt(time.Now())
	}
}

func (s *span) endAt(end time.Time) {
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRecord{
		Name: s.name, Trace: s.trace, ID: s.id, Parent: s.par,
		Start: s.start.Sub(s.t.epoch).Seconds(), End: end.Sub(s.t.epoch).Seconds(),
	})
	s.t.mu.Unlock()
}

// record adds a span whose interval the caller timed itself.
func (t *tracer) record(name string, trace int64, parent *span, start, end time.Time) {
	if s := t.start(name, trace, parent); s != nil {
		s.start = start
		s.endAt(end)
	}
}

func (t *tracer) snapshot() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// write dumps the spans as JSON; called once, when the benchmark ends.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is one span name's totals over a trace pass.
type selfTime struct {
	Count int
	Total float64   // summed durations
	Self  []float64 // per-span self time
}

// selfTimes computes, per span name, each span's duration minus the part of
// its interval its children cover. Children may overlap one another (three
// sites called concurrently), so the covered part is the union of their
// intervals clipped to the parent, not their sum.
func selfTimes(spans []spanRecord) map[string]*selfTime {
	children := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*selfTime)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self = append(st.Self, s.End-s.Start-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of kids' intervals inside parent's.
func covered(parent spanRecord, kids []spanRecord) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, edge := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}
