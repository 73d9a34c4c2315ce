package core

import (
	"strconv"

	"neesgrid/internal/wirejson"
)

// The four NTCP shapes that cross every step — a Proposal and a transaction
// name going out, a Record coming back — encode and decode in one pass,
// without reflection. The encoders write byte for byte what json.Marshal
// writes and hand a value it would refuse (a NaN, an unrepresentable time) to
// json.Marshal itself; the decoders read exactly that output and report
// anything else as not canonical, which sends the caller to json.Unmarshal.
// FuzzRecordCodec holds both to encoding/json.

// AppendJSON implements wirejson.Appender.
func (p *Proposal) AppendJSON(dst []byte) ([]byte, error) {
	if p == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, `{"name":`...)
	b = wirejson.AppendString(b, p.Name)
	b = append(b, `,"actions":`...)
	b, ok := appendActions(b, p.Actions)
	if ok && p.ExecuteTimeoutSeconds != 0 {
		b = append(b, `,"execute_timeout_seconds":`...)
		b, ok = wirejson.AppendFloat(b, p.ExecuteTimeoutSeconds)
	}
	if ok && p.TTLSeconds != 0 {
		b = append(b, `,"ttl_seconds":`...)
		b, ok = wirejson.AppendFloat(b, p.TTLSeconds)
	}
	if !ok {
		return wirejson.AppendMarshal(dst, p)
	}
	return append(b, '}'), nil
}

// DecodeStrict implements wirejson.StrictDecoder.
func (p *Proposal) DecodeStrict(data []byte) bool {
	var out Proposal
	d := wirejson.NewDec(data)
	d.Lit(`{"name":`)
	out.Name = d.String()
	d.Lit(`,"actions":`)
	out.Actions = decodeActions(&d)
	if d.Has(`,"execute_timeout_seconds":`) {
		out.ExecuteTimeoutSeconds = d.Float()
	}
	if d.Has(`,"ttl_seconds":`) {
		out.TTLSeconds = d.Float()
	}
	d.Lit("}")
	if !d.Done() {
		return false
	}
	*p = out
	return true
}

// AppendJSON implements wirejson.Appender.
func (p nameParams) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"name":`...)
	dst = wirejson.AppendString(dst, p.Name)
	return append(dst, '}'), nil
}

// DecodeStrict implements wirejson.StrictDecoder.
func (p *nameParams) DecodeStrict(data []byte) bool {
	d := wirejson.NewDec(data)
	d.Lit(`{"name":`)
	name := d.String()
	d.Lit("}")
	if !d.Done() {
		return false
	}
	p.Name = name
	return true
}

// AppendJSON implements wirejson.Appender.
func (r *Record) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, `{"name":`...)
	b = wirejson.AppendString(b, r.Name)
	b = append(b, `,"state":`...)
	b = wirejson.AppendString(b, string(r.State))
	b = append(b, `,"actions":`...)
	b, ok := appendActions(b, r.Actions)
	if ok {
		b = append(b, `,"execute_timeout_seconds":`...)
		b, ok = wirejson.AppendFloat(b, r.Timeout)
	}
	if ok && len(r.Results) > 0 {
		b = append(b, `,"results":[`...)
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = appendResult(b, &r.Results[i]); !ok {
				break
			}
		}
		b = append(b, ']')
	}
	if ok {
		if r.Error != "" {
			b = append(b, `,"error":`...)
			b = wirejson.AppendString(b, r.Error)
		}
		b = append(b, `,"client":`...)
		b = wirejson.AppendString(b, r.Client)
		b = append(b, `,"timestamps":`...)
		b, ok = appendTimestamps(b, &r.Timestamps)
	}
	if !ok {
		return wirejson.AppendMarshal(dst, r)
	}
	return append(b, '}'), nil
}

// DecodeStrict implements wirejson.StrictDecoder.
func (r *Record) DecodeStrict(data []byte) bool {
	var out Record
	d := wirejson.NewDec(data)
	d.Lit(`{"name":`)
	out.Name = d.String()
	d.Lit(`,"state":`)
	out.State = txStateOf(d.Str())
	d.Lit(`,"actions":`)
	out.Actions = decodeActions(&d)
	d.Lit(`,"execute_timeout_seconds":`)
	out.Timeout = d.Float()
	if d.Has(`,"results":`) {
		out.Results = decodeResults(&d)
	}
	if d.Has(`,"error":`) {
		out.Error = d.String()
	}
	d.Lit(`,"client":`)
	out.Client = d.String()
	d.Lit(`,"timestamps":`)
	ts, known := decodeTimestamps(&d)
	d.Lit("}")
	if !known || !d.Done() {
		return false
	}
	out.Timestamps = ts
	*r = out
	return true
}

// AppendJSON implements wirejson.Appender: the "stats" SDE is republished on
// every transaction state change.
func (s Stats) AppendJSON(dst []byte) ([]byte, error) {
	for _, f := range [...]struct {
		key string
		n   int
	}{
		{`{"proposed":`, s.Proposed}, {`,"accepted":`, s.Accepted}, {`,"rejected":`, s.Rejected},
		{`,"executed":`, s.Executed}, {`,"failed":`, s.Failed}, {`,"cancelled":`, s.Cancelled},
		{`,"deduped_replays":`, s.DedupedReplay},
	} {
		dst = append(dst, f.key...)
		dst = strconv.AppendInt(dst, int64(f.n), 10)
	}
	return append(dst, '}'), nil
}

// txStateOf returns the state b spells, without allocating for the seven
// states of Fig. 1.
func txStateOf(b []byte) TxState {
	switch string(b) {
	case string(StateProposed):
		return StateProposed
	case string(StateAccepted):
		return StateAccepted
	case string(StateRejected):
		return StateRejected
	case string(StateExecuting):
		return StateExecuting
	case string(StateExecuted):
		return StateExecuted
	case string(StateCancelled):
		return StateCancelled
	case string(StateFailed):
		return StateFailed
	}
	return TxState(b)
}

func appendActions(b []byte, actions []Action) (_ []byte, ok bool) {
	if actions == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i := range actions {
		a := &actions[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"control_point":`...)
		b = wirejson.AppendString(b, a.ControlPoint)
		b = append(b, `,"displacements":`...)
		if b, ok = wirejson.AppendFloats(b, a.Displacements); !ok {
			return b, false
		}
		if a.HoldSeconds != 0 {
			b = append(b, `,"hold_seconds":`...)
			if b, ok = wirejson.AppendFloat(b, a.HoldSeconds); !ok {
				return b, false
			}
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

// decodeActions reads null (a nil slice) or an array of actions.
func decodeActions(d *wirejson.Dec) []Action {
	if d.Has("null") {
		return nil
	}
	out := []Action{}
	d.Lit("[")
	for !d.Has("]") && d.OK() {
		if len(out) > 0 {
			d.Lit(",")
		}
		var a Action
		d.Lit(`{"control_point":`)
		a.ControlPoint = d.String()
		d.Lit(`,"displacements":`)
		a.Displacements = d.Floats()
		if d.Has(`,"hold_seconds":`) {
			a.HoldSeconds = d.Float()
		}
		d.Lit("}")
		out = append(out, a)
	}
	return out
}

func appendResult(b []byte, r *Result) (_ []byte, ok bool) {
	b = append(b, `{"control_point":`...)
	b = wirejson.AppendString(b, r.ControlPoint)
	b = append(b, `,"displacements":`...)
	if b, ok = wirejson.AppendFloats(b, r.Displacements); !ok {
		return b, false
	}
	b = append(b, `,"forces":`...)
	if b, ok = wirejson.AppendFloats(b, r.Forces); !ok {
		return b, false
	}
	return append(b, '}'), true
}

// decodeResults reads null (a nil slice) or an array of results.
func decodeResults(d *wirejson.Dec) []Result {
	if d.Has("null") {
		return nil
	}
	out := []Result{}
	d.Lit("[")
	for !d.Has("]") && d.OK() {
		if len(out) > 0 {
			d.Lit(",")
		}
		var r Result
		d.Lit(`{"control_point":`)
		r.ControlPoint = d.String()
		d.Lit(`,"displacements":`)
		r.Displacements = d.Floats()
		d.Lit(`,"forces":`)
		r.Forces = d.Floats()
		d.Lit("}")
		out = append(out, r)
	}
	return out
}

// appendTimestamps writes ts as encoding/json writes the map it stands for:
// the states present, in byte order. A time encoding/json would be asked to
// format (an unrepresentable year, an offset in seconds) reports false.
func appendTimestamps(b []byte, ts *Timestamps) (_ []byte, ok bool) {
	b = append(b, '{')
	sep := false
	for i, s := range states {
		if ts.set&(1<<i) == 0 {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = wirejson.AppendString(b, string(s))
		b = append(b, ':')
		if b, ok = wirejson.AppendTime(b, ts.at[i]); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// decodeTimestamps reads null (none) or an object of state → time; ok is
// false for a state outside Fig. 1.
func decodeTimestamps(d *wirejson.Dec) (ts Timestamps, ok bool) {
	if d.Has("null") {
		return ts, true
	}
	d.Lit("{")
	for sep := false; !d.Has("}") && d.OK(); sep = true {
		if sep {
			d.Lit(",")
		}
		s := txStateOf(d.Str())
		d.Lit(":")
		if !ts.Set(s, d.Time()) {
			return ts, false
		}
	}
	return ts, true
}
