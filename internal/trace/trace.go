// Package trace is a W3C-traceparent-style distributed tracing subsystem
// for the emulated grid: 128-bit trace IDs, 64-bit span IDs, propagation
// through context.Context inside a process and through the signed OGSI
// envelope between processes, and a lock-cheap bounded recorder per
// process that the unsigned GET /trace endpoint and the MOST archive read
// back.
//
// The paper's step-latency breakdown (coordinator compute, per-site NTCP
// round trips, DAQ readback) was assembled by hand from per-site logs;
// this package makes that correlation a first-class service: every MOST
// time step is one trace whose spans cross the coordinator, each site's
// container, and the streaming fan-out.
//
// All span-side APIs are nil-safe: a nil *Tracer returns a nil *Span from
// Start, and every *Span method no-ops on nil, so call sites wire tracing
// unconditionally and pay nothing when it is off.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, mirroring the W3C/OpenTelemetry vocabulary. A MOST step's
// NTCP round trip shows up as a KindClient span on the coordinator paired
// with a KindServer span on the site; everything else is KindInternal.
const (
	KindInternal = "internal"
	KindClient   = "client"
	KindServer   = "server"
)

// TraceID is a 128-bit trace identifier (all-zero means absent).
type TraceID [16]byte

// SpanID is a 64-bit span identifier (all-zero means absent).
type SpanID [8]byte

// IsValid reports whether the ID is non-zero.
func (t TraceID) IsValid() bool { return t != TraceID{} }

// IsValid reports whether the ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String returns the 32-char lowercase hex form ("" when invalid).
func (t TraceID) String() string {
	if !t.IsValid() {
		return ""
	}
	return hex.EncodeToString(t[:])
}

// String returns the 16-char lowercase hex form ("" when invalid).
func (s SpanID) String() string {
	if !s.IsValid() {
		return ""
	}
	return hex.EncodeToString(s[:])
}

// idState seeds the splitmix64 sequence that generates IDs. A single
// atomic add per ID keeps generation lock-free on the per-transaction hot
// path; the process-random seed makes collisions across emulated sites
// vanishingly unlikely.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// Fall back to wall time; IDs stay unique within the process.
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.LittleEndian.Uint64(seed[:]))
}

// nextRand returns the next value of the process-wide splitmix64 stream.
func nextRand() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewTraceID returns a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for !t.IsValid() {
		binary.BigEndian.PutUint64(t[:8], nextRand())
		binary.BigEndian.PutUint64(t[8:], nextRand())
	}
	return t
}

// NewSpanID returns a fresh non-zero 64-bit span ID.
func NewSpanID() SpanID {
	var s SpanID
	for !s.IsValid() {
		binary.BigEndian.PutUint64(s[:], nextRand())
	}
	return s
}

// SpanContext is the propagated part of a span: enough to parent remote
// children and to render the cross-process timeline.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsValid reports whether both IDs are present.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// traceparentLen is the length of the W3C traceparent form.
const traceparentLen = 55

// Traceparent renders the W3C traceparent header form,
// "00-<32 hex trace>-<16 hex span>-01" ("" when invalid). The flags byte
// is always 01 (sampled): the recorder ring is the sampling policy here.
func (sc SpanContext) Traceparent() string {
	var buf [traceparentLen]byte
	return string(sc.AppendTraceparent(buf[:0]))
}

// AppendTraceparent appends the traceparent form to dst (nothing when
// invalid) — the allocation-free form for a caller that is already building
// a message in a buffer.
func (sc SpanContext) AppendTraceparent(dst []byte) []byte {
	if !sc.IsValid() {
		return dst
	}
	dst = append(dst, "00-"...)
	dst = hex.AppendEncode(dst, sc.TraceID[:])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, sc.SpanID[:])
	return append(dst, "-01"...)
}

var errBadTraceparent = errors.New("trace: malformed traceparent")

// ParseTraceparent parses the W3C traceparent form produced by
// SpanContext.Traceparent. Unknown versions are accepted as long as the
// field layout matches version 00; zero IDs are rejected.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	if len(s) != traceparentLen || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, errBadTraceparent
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return sc, errBadTraceparent
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return sc, errBadTraceparent
	}
	if !sc.IsValid() {
		return sc, errBadTraceparent
	}
	return sc, nil
}

// SpanEvent is a timestamped annotation on a span — faultnet uses these
// to make injected delays and cuts visible in the timeline.
type SpanEvent struct {
	TS     time.Time `json:"ts"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
}

// SpanData is the recorded (and JSON-serialized) form of a finished span.
// IDs are hex strings so the JSON is self-describing and greppable.
type SpanData struct {
	TraceID string            `json:"trace_id"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Service string            `json:"service,omitempty"`
	Name    string            `json:"name"`
	Kind    string            `json:"kind,omitempty"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []SpanEvent       `json:"events,omitempty"`
	Err     string            `json:"error,omitempty"`
}

// Duration is the span's wall-clock extent.
func (sd SpanData) Duration() time.Duration { return sd.End.Sub(sd.Start) }

// Attr is one span attribute, as RecordSpan takes them.
type Attr struct{ Key, Value string }

// attrSet holds a span's attributes until a snapshot reads them. The first
// few sit in a fixed array — every span on the step path has at most three —
// so a span costs no map; any beyond that spill into a map.
type attrSet struct {
	n  int
	kv [4]Attr
}

// set adds key or replaces its value, spilling into *spill once the array
// is full (so *spill is non-nil only then).
func (a *attrSet) set(spill *map[string]string, key, value string) {
	for i := range a.kv[:a.n] {
		if a.kv[i].Key == key {
			a.kv[i].Value = value
			return
		}
	}
	if a.n < len(a.kv) {
		a.kv[a.n] = Attr{key, value}
		a.n++
		return
	}
	if *spill == nil {
		*spill = make(map[string]string)
	}
	(*spill)[key] = value
}

// flush moves the inline attributes into *m, making the map if needed.
func (a *attrSet) flush(m *map[string]string) {
	if a.n == 0 {
		return
	}
	if *m == nil {
		*m = make(map[string]string, a.n)
	}
	for _, kv := range a.kv[:a.n] {
		(*m)[kv.Key] = kv.Value
	}
	*a = attrSet{}
}

// Span is a live, in-progress span. All methods are safe on a nil
// receiver and safe for concurrent use (faultnet annotates from transport
// goroutines while the owner sets attributes).
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID

	mu    sync.Mutex
	data  SpanData // the ID fields stay empty: sc and parent hold them in binary
	attrs attrSet  // data.Attrs holds only what spills from here
	ended bool
}

// Context returns the span's propagation context (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.attrs.set(&s.data.Attrs, key, value)
}

// Annotate appends a timestamped event to the span.
func (s *Span) Annotate(name, detail string) {
	if s == nil {
		return
	}
	now := s.tracer.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.data.Events = append(s.data.Events, SpanEvent{TS: now, Name: name, Detail: detail})
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.data.Err = err.Error()
}

// End finishes the span and hands it to the recorder. Ending twice is a
// no-op; attribute/event calls after End are dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = now
	sd, attrs := s.data, s.attrs
	s.mu.Unlock()
	s.tracer.rec.record(sd, attrs, s.sc, s.parent)
}

// Tracer creates spans for one service (one process-side identity: a site
// name, "coordinator", "nsds", ...) and records them into a Recorder.
type Tracer struct {
	service string
	rec     *Recorder
	clock   func() time.Time
}

// NewTracer builds a tracer recording into rec (a default-capacity
// recorder is created when rec is nil).
func NewTracer(service string, rec *Recorder) *Tracer {
	if rec == nil {
		rec = NewRecorder(0)
	}
	return &Tracer{service: service, rec: rec, clock: time.Now}
}

// Service returns the service name spans are attributed to.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Recorder returns the tracer's span sink (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// SetClock overrides the time source (tests only).
func (t *Tracer) SetClock(clock func() time.Time) {
	if t != nil && clock != nil {
		t.clock = clock
	}
}

func (t *Tracer) now() time.Time {
	if t == nil || t.clock == nil {
		return time.Now()
	}
	return t.clock()
}

// Start opens a span named name with the given kind. The parent is the
// live span in ctx, or the remote SpanContext installed by
// ContextWithRemote; with neither, a fresh trace begins. The returned
// context carries the new span. A nil tracer returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, name, kind string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := SpanContextFromContext(ctx)
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	if !sc.TraceID.IsValid() {
		sc.TraceID = NewTraceID()
	}
	s := &Span{
		tracer: t,
		sc:     sc,
		parent: parent.SpanID,
		data: SpanData{
			Service: t.service,
			Name:    name,
			Kind:    kind,
			Start:   t.now(),
		},
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// RecordSpan records an already-measured child span of parent — the
// retroactive form used when the work happened before its trace context
// was readable (GSI chain verification runs before the envelope payload,
// and thus the traceparent, can be decoded) or on a goroutine detached
// from the request context (plugin execution). attrs are key/value pairs,
// kept as SetAttr keeps them (a repeated key keeps its last value). A nil
// tracer or invalid parent drops the record.
func (t *Tracer) RecordSpan(parent SpanContext, name, kind string, start, end time.Time, attrs ...Attr) {
	if t == nil || !parent.IsValid() {
		return
	}
	sd := SpanData{
		Service: t.service,
		Name:    name,
		Kind:    kind,
		Start:   start,
		End:     end,
	}
	var set attrSet
	for _, kv := range attrs {
		set.set(&sd.Attrs, kv.Key, kv.Value)
	}
	t.rec.record(sd, set, SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}, parent.SpanID)
}

type spanKey struct{}
type remoteKey struct{}

// ContextWithRemote installs a remote parent SpanContext (decoded from an
// incoming traceparent) so the next Start parents under the caller's span.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.IsValid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// SpanFromContext returns the live span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SpanContextFromContext returns the propagation context in effect: the
// live span's if one is present, else any remote parent, else zero.
func SpanContextFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	if s := SpanFromContext(ctx); s != nil {
		return s.sc
	}
	sc, _ := ctx.Value(remoteKey{}).(SpanContext)
	return sc
}
