package trace

import "sync"

// DefaultCapacity is the recorder ring size when none is given: enough
// for a few hundred MOST time steps' worth of spans per process while
// keeping the per-container memory footprint bounded.
const DefaultCapacity = 8192

// Recorder is a bounded ring of finished spans, the per-process span
// sink. Like telemetry.EventLog it favours cheap writes over retention:
// Record is a short critical section with no allocation beyond the ring
// slot, and when the ring wraps the oldest spans are dropped (counted,
// never blocking the hot path).
type Recorder struct {
	mu      sync.Mutex
	ring    []slot
	next    int
	wrapped bool
	dropped int64
}

// slot is one retained span. A span recorded by a Tracer keeps its IDs in
// binary (sc, parent) with the hex fields of sd empty, and its attributes in
// attrs with sd.Attrs holding only what spilled: hex-encoding three IDs and
// making a map per span were a third of the step path's allocations, and
// most spans are evicted unread. The hex IDs and the map are filled in,
// once, when a snapshot first reads the slot.
type slot struct {
	sd     SpanData
	attrs  attrSet
	sc     SpanContext
	parent SpanID
	raw    bool
}

// NewRecorder builds a recorder keeping the most recent capacity spans
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]slot, capacity)}
}

// record is Record for a span whose IDs are still binary and whose
// attributes are still inline.
func (r *Recorder) record(sd SpanData, attrs attrSet, sc SpanContext, parent SpanID) {
	r.put(slot{sd: sd, attrs: attrs, sc: sc, parent: parent, raw: true})
}

func (r *Recorder) put(s slot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.ring[r.next] = s
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Oldest first: once wrapped, the slots from next on precede those before.
	var older []slot
	if r.wrapped {
		older = r.ring[r.next:]
	}
	newer := r.ring[:r.next]
	if len(older)+len(newer) == 0 {
		return nil
	}
	out := make([]SpanData, 0, len(older)+len(newer))
	for _, part := range [][]slot{older, newer} {
		for i := range part {
			s := &part[i]
			if s.raw {
				s.sd.TraceID = s.sc.TraceID.String()
				s.sd.SpanID = s.sc.SpanID.String()
				s.sd.Parent = s.parent.String()
				s.attrs.flush(&s.sd.Attrs)
				s.raw = false
			}
			out = append(out, s.sd)
		}
	}
	return out
}

// Trace returns the retained spans of one trace (hex ID), oldest first.
func (r *Recorder) Trace(traceID string) []SpanData {
	var out []SpanData
	for _, sd := range r.Spans() {
		if sd.TraceID == traceID {
			out = append(out, sd)
		}
	}
	return out
}
