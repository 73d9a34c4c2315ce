package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/wirejson"
	"neesgrid/internal/wirejson/wiretest"
)

var (
	codecT0 = time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC)
	codecT1 = time.Date(2026, 8, 5, 7, 30, 46, 0, time.FixedZone("cdt", -5*3600))
)

// stamped builds a Timestamps from a map.
func stamped(at map[TxState]time.Time) Timestamps {
	var ts Timestamps
	for s, t := range at {
		ts.Set(s, t)
	}
	return ts
}

func codecRecords() []*Record {
	actions := []Action{{ControlPoint: "left-column", Displacements: []float64{0.00125, -3.5e-7}},
		{ControlPoint: "drift", Displacements: []float64{0}, HoldSeconds: 0.5}}
	every := map[TxState]time.Time{}
	for i, s := range states {
		every[s] = codecT0.Add(time.Duration(i) * time.Microsecond)
	}
	return []*Record{
		{Name: "run/step-7/uiuc", State: StateExecuted, Actions: actions, Timeout: 30,
			Results: []Result{{ControlPoint: "left-column", Displacements: []float64{0.00125, -3.5e-7}, Forces: []float64{962.5, 1e21}},
				{ControlPoint: "drift"}},
			Client: "/O=NEES/CN=coordinator",
			Timestamps: stamped(map[TxState]time.Time{StateProposed: codecT0, StateAccepted: codecT0.Add(time.Millisecond),
				StateExecuting: codecT1, StateExecuted: codecT1.Add(time.Second)})},
		{Name: "t-rejected", State: StateRejected, Actions: actions[:1], Error: `force limit "exceeded" <policy>`,
			Client: "c", Timestamps: stamped(map[TxState]time.Time{StateProposed: codecT0, StateRejected: codecT0})},
		{Name: "empty-not-nil", State: StateAccepted, Actions: []Action{}, Results: []Result{}},
		{Name: "all-nil"},
		{Name: "odd state", State: "paused", Actions: []Action{{ControlPoint: "π", Displacements: []float64{}}},
			Timestamps: stamped(every)},
		{Name: "offset in seconds", State: StateProposed,
			Timestamps: stamped(map[TxState]time.Time{StateProposed: codecT0.In(time.FixedZone("lmt", 30))})},
		nil,
	}
}

func codecProposals() []*Proposal {
	return []*Proposal{
		{Name: "run/step-7/uiuc", Actions: []Action{{ControlPoint: "left-column", Displacements: []float64{0.00125}}}},
		{Name: "with-options", Actions: []Action{{ControlPoint: "a", Displacements: []float64{1, 2}, HoldSeconds: 1e-9}},
			ExecuteTimeoutSeconds: 2.5, TTLSeconds: 3600},
		{Name: `needs "escaping" & <more>`, Actions: nil},
		{},
		nil,
	}
}

// TestAppendersMatchMarshal extends the ogsi byte-compat tests to the NTCP
// shapes: each appender writes exactly json.Marshal's bytes.
func TestAppendersMatchMarshal(t *testing.T) {
	var values []wirejson.Appender
	for _, r := range codecRecords() {
		values = append(values, r)
	}
	for _, p := range codecProposals() {
		values = append(values, p)
	}
	values = append(values, nameParams{Name: "run/step-7/uiuc"}, nameParams{Name: `odd "name"`}, nameParams{},
		Stats{}, Stats{Proposed: 1500, Accepted: 1499, Rejected: 1, Executed: 1498, Failed: 1, Cancelled: 2, DedupedReplay: -3})
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AppendJSON([]byte("prefix"))
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%T:\nappend  %s (%v)\nmarshal %s", v, got, err, want)
		}
	}
}

// TestAppendersFailWhereMarshalFails: a value encoding/json refuses is
// refused with encoding/json's own error, and nothing is appended.
func TestAppendersFailWhereMarshalFails(t *testing.T) {
	nan := []float64{1, math.NaN()}
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	for name, v := range map[string]wirejson.Appender{
		"NaN displacement": &Proposal{Name: "p", Actions: []Action{{ControlPoint: "a", Displacements: nan}}},
		"infinite timeout": &Proposal{Name: "p", ExecuteTimeoutSeconds: math.Inf(1)},
		"NaN hold":         &Record{Name: "r", Actions: []Action{{ControlPoint: "a", HoldSeconds: math.NaN()}}},
		"NaN force":        &Record{Name: "r", Results: []Result{{ControlPoint: "a", Forces: nan}}},
		"year 10000":       &Record{Name: "r", Timestamps: stamped(map[TxState]time.Time{StateProposed: far})},
	} {
		want, wantErr := json.Marshal(v)
		got, err := v.AppendJSON([]byte("prefix"))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: append err %v, marshal err %v", name, err, wantErr)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s:\nappend  %s\nmarshal %s", name, got, want)
		}
	}
}

// TestStrictDecodersTakeTheirOwnEncoding: the fast path is the common path —
// everything the appenders write (without an escape in it) is decoded
// strictly, to the value encoding/json decodes.
func TestStrictDecodersTakeTheirOwnEncoding(t *testing.T) {
	for _, r := range codecRecords() {
		if r == nil {
			continue
		}
		enc, _ := r.AppendJSON(nil)
		var got Record
		if escaped := bytes.ContainsRune(enc, '\\'); got.DecodeStrict(enc) == escaped {
			t.Fatalf("record %q: strict = %v with escapes = %v", r.Name, !escaped, escaped)
		}
		wiretest.AgreeWithEncodingJSON(t, enc, new(Record), new(Record))
	}
	for _, p := range codecProposals() {
		if p == nil {
			continue
		}
		enc, _ := p.AppendJSON(nil)
		var got Proposal
		if escaped := bytes.ContainsRune(enc, '\\'); got.DecodeStrict(enc) == escaped {
			t.Fatalf("proposal %q: strict = %v with escapes = %v", p.Name, !escaped, escaped)
		}
		wiretest.AgreeWithEncodingJSON(t, enc, new(Proposal), new(Proposal))
	}
	var n nameParams
	if !n.DecodeStrict([]byte(`{"name":"run/step-7/uiuc"}`)) || n.Name != "run/step-7/uiuc" {
		t.Fatalf("nameParams: %+v", n)
	}
}

// FuzzRecordCodec is the differential target for the NTCP shapes. Decoders:
// for arbitrary bytes, strict and encoding/json produce equal structs or the
// strict one declines. Encoders: whatever encoding/json decoded is re-encoded
// byte for byte as json.Marshal does (or refused as it refuses).
func FuzzRecordCodec(f *testing.F) {
	for _, r := range codecRecords() {
		enc, _ := r.AppendJSON(nil)
		f.Add(enc)
	}
	for _, p := range codecProposals() {
		enc, _ := p.AppendJSON(nil)
		f.Add(enc)
	}
	for _, seed := range []string{
		`{"name":"t"}`, `{"name":"t","x":1}`, `{"name": "t"}`, `{"name":"t\u0041"}`,
		`{"name":"t","state":"executed","actions":null,"execute_timeout_seconds":0,"client":"c","timestamps":null}`,
		`{"name":"t","state":"executed","actions":[],"execute_timeout_seconds":1e400,"client":"c","timestamps":{}}`,
		`{"name":"t","state":"executed","actions":[{"control_point":"a","displacements":[1,2,]}],"execute_timeout_seconds":0,"client":"c","timestamps":{}}`,
		`{"name":"t","state":"x","actions":[],"execute_timeout_seconds":-0,"results":null,"error":"","client":"c","timestamps":{"a":"2026-08-05T12:30:45Z","a":"2026-08-05T12:30:46+01:00"}}`,
		`{"name":"t","actions":[{"control_point":"a","displacements":null,"hold_seconds":0}],"ttl_seconds":1}`,
		`{"name":"t","actions":[{"control_point":"a","displacements":[01]}]}`,
		`{"name":"t","state":"executed","actions":[],"execute_timeout_seconds":0,"client":"c","timestamps":{"proposed":"2026-13-05T12:30:45Z"}}`,
		`{"name":"t","state":"accepted","actions":[],"execute_timeout_seconds":0,"client":"c","timestamps":{"proposed":"2026-08-05T12:30:45Z","accepted":"2026-08-05T12:30:46Z","proposed":"2026-08-05T12:30:47+01:00"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.AgreeWithEncodingJSON(t, data, new(Record), new(Record))
		wiretest.AgreeWithEncodingJSON(t, data, new(Proposal), new(Proposal))
		wiretest.AgreeWithEncodingJSON(t, data, new(nameParams), new(nameParams))

		for _, v := range []wirejson.Appender{new(Record), new(Proposal), new(nameParams)} {
			if json.Unmarshal(data, v) != nil {
				continue
			}
			want, wantErr := json.Marshal(v)
			got, err := v.AppendJSON(nil)
			if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%T from %q:\nappend  %s (%v)\nmarshal %s (%v)", v, data, got, err, want, wantErr)
			}
		}
	})
}

// TestPublishedRecordIsNotTheReturnedOne: the tx:<name> element is read from
// the table, so what Propose and Cancel return must be a copy — a caller is
// free to change its own.
func TestPublishedRecordIsNotTheReturnedOne(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	ctx := context.Background()
	for _, step := range []struct {
		name string
		act  func() (*Record, error)
	}{
		{"propose", func() (*Record, error) { return s.Propose(ctx, "alice", proposal("t1", 0.01)) }},
		{"cancel", func() (*Record, error) { return s.Cancel(ctx, "alice", "t1") }},
	} {
		name := step.name
		rec, err := step.act()
		if err != nil {
			t.Fatal(err)
		}
		state := rec.State
		rec.State, rec.Name = "scribbled", "scribbled"
		rec.Timestamps.Set(StateFailed, time.Now())
		var published Record
		if err := s.Service().SDEs.GetInto("tx:t1", &published); err != nil {
			t.Fatal(err)
		}
		if published.State != state || published.Name != "t1" || published.Timestamps.Len() != rec.Timestamps.Len()-1 {
			t.Fatalf("after %s the published record follows the caller's copy: %+v", name, published)
		}
	}
}

// TestServerCountsParamsFallbacks: params that are valid JSON but not the
// canonical encoding are still served — and counted.
func TestServerCountsParamsFallbacks(t *testing.T) {
	s := NewServer(springPlugin(10), nil, ServerOptions{})
	fallbacks := func() int64 { return s.Telemetry().Snapshot().Counters[ogsi.MetricDecodeFallbacks] }
	if _, registered := s.Telemetry().Snapshot().Counters[ogsi.MetricDecodeFallbacks]; !registered {
		t.Fatal("fallback counter not pre-registered")
	}
	var p Proposal
	if err := s.decodeParams([]byte(`{"name":"t","actions":[{"control_point":"drift","displacements":[0.01]}]}`), &p); err != nil || p.Name != "t" || fallbacks() != 0 {
		t.Fatalf("canonical params: %+v %v, %d fallbacks", p, err, fallbacks())
	}
	var n nameParams
	if err := s.decodeParams([]byte(` { "name" : "t" } `), &n); err != nil || n.Name != "t" || fallbacks() != 1 {
		t.Fatalf("spaced params: %+v %v, %d fallbacks", n, err, fallbacks())
	}
	if err := s.decodeParams([]byte(`{"name":`), &n); err == nil || fallbacks() != 2 {
		t.Fatalf("truncated params accepted (%d fallbacks)", fallbacks())
	}
}

// Telemetry exposes the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }
