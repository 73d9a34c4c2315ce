package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"ntcp",
		"propose",
		`with "quotes" and \backslashes\`,
		"control\x00\x1fchars\nand\ttabs\r",
		"backspace\band\fformfeed",
		"unicode — π/2 ≤ θ",
		"html <escapes> & entities",
		"js line separators \u2028 and \u2029",
		"invalid utf-8 \xff\xfe mid\xc3string",
		"\x7fdel passes through",
	}
	for _, s := range cases {
		got := AppendString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: append %s != marshal %s", s, got, want)
		}
		var back string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("%q: output does not parse: %v (%s)", s, err, got)
		}
		if !strings.Contains(s, "\xff") && !strings.Contains(s, "\xfe") && !strings.Contains(s, "\xc3s") && back != s {
			t.Fatalf("%q round-tripped to %q", s, back)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.234e21, 1e-9, 1e-10, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 7.7e5, -0.0254, 123456789.125, 1.0 / 3,
	} {
		got, ok := AppendFloat(nil, f)
		want, err := json.Marshal(f)
		if !ok || err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%g: append %s (ok %v) != marshal %s (%v)", f, got, ok, want, err)
		}
		// And the strict decoder reads back what the encoder wrote.
		d := NewDec(got)
		if back := d.Float(); !d.Done() || back != f || math.Signbit(back) != math.Signbit(f) {
			t.Fatalf("%g decoded to %g (done %v)", f, back, d.Done())
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := AppendFloat(nil, f); ok {
			t.Fatalf("%g encoded", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json encodes %g", f)
		}
	}
	if got, ok := AppendFloats(nil, nil); !ok || string(got) != "null" {
		t.Fatalf("nil slice: %s", got)
	}
	if got, ok := AppendFloats(nil, []float64{}); !ok || string(got) != "[]" {
		t.Fatalf("empty slice: %s", got)
	}
}

func TestAppendTimeMatchesEncodingJSON(t *testing.T) {
	far := time.FixedZone("far", 25*3600)
	odd := time.FixedZone("odd", 3600+30)
	for _, tc := range []struct {
		t  time.Time
		ok bool
	}{
		{time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC), true},
		{time.Date(2026, 8, 5, 12, 30, 45, 0, time.FixedZone("cdt", -5*3600)), true},
		{time.Now(), true}, // monotonic reading, local zone
		{time.Time{}, true},
		{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(2026, 1, 1, 0, 0, 0, 0, far), false},
		// encoding/json truncates an offset with seconds; the appender just
		// declines, which sends its caller to encoding/json.
		{time.Date(2026, 1, 1, 0, 0, 0, 0, odd), false},
	} {
		got, ok := AppendTime(nil, tc.t)
		if ok != tc.ok {
			t.Fatalf("%v: ok = %v, want %v", tc.t, ok, tc.ok)
		}
		if !ok {
			continue
		}
		want, err := json.Marshal(tc.t)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: append %s != marshal %s (%v)", tc.t, got, want, err)
		}
		d := NewDec(got)
		if back := d.Time(); !d.Done() || !back.Equal(tc.t) {
			t.Fatalf("%v decoded to %v (done %v)", tc.t, back, d.Done())
		}
	}
}

// TestAppendAndUnmarshalDispatch pins the two entry points: a value with its
// own codec goes through it, one without goes through encoding/json, and a
// strict decoder that declines is reported as a fallback.
func TestAppendAndUnmarshalDispatch(t *testing.T) {
	got, err := Append([]byte("x"), map[string]int{"a": 1})
	if err != nil || string(got) != `x{"a":1}` {
		t.Fatalf("plain value: %s %v", got, err)
	}
	if _, err := Append(nil, math.NaN()); err == nil {
		t.Fatal("NaN encoded")
	}
	got, err = Append([]byte("x"), word("hi"))
	if err != nil || string(got) != `x"hi"` {
		t.Fatalf("appender: %s %v", got, err)
	}

	var w word
	if fellBack, err := Unmarshal([]byte(`"hi"`), &w); fellBack || err != nil || w != "hi" {
		t.Fatalf("canonical: %q %v %v", w, fellBack, err)
	}
	if fellBack, err := Unmarshal([]byte(` "hi" `), &w); !fellBack || err != nil || w != "hi" {
		t.Fatalf("non-canonical: %q %v %v", w, fellBack, err)
	}
	if fellBack, err := Unmarshal([]byte(`{`), &w); !fellBack || err == nil {
		t.Fatalf("garbage: %v %v", fellBack, err)
	}
	var plain string
	if fellBack, err := Unmarshal([]byte(`"hi"`), &plain); fellBack || err != nil || plain != "hi" {
		t.Fatalf("no strict decoder: %q %v %v", plain, fellBack, err)
	}
}

type word string

func (w word) AppendJSON(dst []byte) ([]byte, error) { return AppendString(dst, string(w)), nil }

func (w *word) DecodeStrict(data []byte) bool {
	d := NewDec(data)
	s := d.String()
	if !d.Done() {
		return false
	}
	*w = word(s)
	return true
}

func TestDecStrictness(t *testing.T) {
	// Str takes only what stands for itself.
	for in, ok := range map[string]bool{
		`"plain"`:         true,
		`""`:              true,
		`"π ≤ θ"`:         true,
		`"<raw html>"`:    true, // encoding/json accepts it raw too
		`"esc\n"`:         false,
		`"quote\""`:       false,
		"\"ctl\x01\"":     false,
		"\"bad\xffutf8\"": false,
		`"unterminated`:   false,
		`plain`:           false,
		``:                false,
		`"a" `:            false, // trailing byte: Done fails
	} {
		d := NewDec([]byte(in))
		s := d.Str()
		if d.Done() != ok {
			t.Errorf("Str(%q): done = %v, want %v", in, d.Done(), ok)
		}
		if ok && string(s) != in[1:len(in)-1] {
			t.Errorf("Str(%q) = %q", in, s)
		}
	}
	// Failure is sticky and every later read is a zero-valued no-op.
	d := NewDec([]byte(`{"a":1}`))
	d.Lit(`{"b":`)
	if d.OK() || d.Has(`{"a":`) || d.Float() != 0 || d.Value() != nil || d.Str() != nil || d.Bool() || d.Done() {
		t.Fatal("reads after a failure are not no-ops")
	}
	// Floats mirrors encoding/json on null, [] and lists.
	for in, want := range map[string][]float64{"null": nil, "[]": {}, "[1,2.5,-3e2]": {1, 2.5, -300}} {
		d := NewDec([]byte(in))
		got := d.Floats()
		var ref []float64
		if err := json.Unmarshal([]byte(in), &ref); err != nil {
			t.Fatal(err)
		}
		if !d.Done() || (got == nil) != (want == nil) || (ref == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("Floats(%s) = %v (done %v), encoding/json %v", in, got, d.Done(), ref)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Floats(%s) = %v", in, got)
			}
		}
	}
	for _, in := range []string{"[1,]", "[,1]", "[1 ,2]", "[01]", "[1.]", "[1e]", "[+1]", "[1e400]", "[1", "[NaN]"} {
		d := NewDec([]byte(in))
		d.Floats()
		if d.Done() {
			t.Errorf("Floats(%s) accepted", in)
		}
	}
}

// valueCases seed both the table test and the fuzz target.
var valueCases = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e-7`, `""`, `"a\"b\\c\/\b\f\n\r\té"`,
	`[]`, `{}`, `[1,"a",null,{"k":[true]}]`, `{"a":{"b":{"c":[1,2,{"d":null}]}}}`,
	"{ \"a\" : [ 1 , 2 ] ,\n\t\"b\" : { } }", `{"results":[{"control_point":"drift","displacements":[0.001],"forces":[770]}]}`,
	// invalid
	``, ` 1`, `nul`, `tru`, `01`, `1.`, `.5`, `-`, `1e`, `"a`, `"\x"`, `"\u12g4"`, "\"\x01\"", `[1,]`, `[,]`,
	`{"a"}`, `{"a":}`, `{"a":1,}`, `{1:2}`, `{"a":1 "b":2}`, `[1 2]`, `[`, `{`, `]`, `"\`,
	"\"raw \xff byte\"", // encoding/json's scanner does not look at UTF-8, so neither does Value
}

// agreeOnValue checks Value against encoding/json: when data starts with a
// non-space byte, Value consumes a prefix exactly when that prefix is a valid
// JSON document, and a whole valid document is consumed whole.
func agreeOnValue(t *testing.T, data []byte) {
	t.Helper()
	d := NewDec(data)
	v := d.Value()
	if d.OK() {
		if !json.Valid(v) {
			t.Fatalf("Value took %q out of %q, which encoding/json rejects", v, data)
		}
		if len(v) > 0 && (v[0] == ' ' || v[0] == '\t' || v[0] == '\n' || v[0] == '\r') {
			t.Fatalf("Value took leading whitespace: %q", v)
		}
	}
	lead := len(data) > 0 && (data[0] == ' ' || data[0] == '\t' || data[0] == '\n' || data[0] == '\r')
	if json.Valid(data) && !lead && nesting(data) <= maxDepth {
		trimmed := bytes.TrimRight(data, " \t\r\n")
		if !d.OK() || !bytes.Equal(v, trimmed) {
			t.Fatalf("encoding/json accepts %q, Value took %q (ok %v)", data, v, d.OK())
		}
	}
}

// nesting is the deepest bracket nesting outside strings.
func nesting(data []byte) int {
	depth, deepest, inString := 0, 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && (c == '[' || c == '{'):
			depth++
			deepest = max(deepest, depth)
		case !inString && (c == ']' || c == '}'):
			depth--
		}
	}
	return deepest
}

func TestValueAgreesWithEncodingJSON(t *testing.T) {
	for _, in := range valueCases {
		agreeOnValue(t, []byte(in))
	}
	// Deeper than maxDepth: declined, so the caller asks encoding/json.
	deep := strings.Repeat("[", maxDepth+2) + strings.Repeat("]", maxDepth+2)
	d := NewDec([]byte(deep))
	if d.Value(); d.OK() {
		t.Fatal("over-deep value accepted")
	}
	// A value stops where it ends: the rest of the document is the caller's.
	d = NewDec([]byte(`{"a":[1,2]},"sent":"x"`))
	if v := d.Value(); string(v) != `{"a":[1,2]}` || !d.Has(`,"sent":`) {
		t.Fatalf("Value took %q", v)
	}
}

func FuzzValue(f *testing.F) {
	for _, in := range valueCases {
		f.Add([]byte(in))
	}
	f.Fuzz(agreeOnValue)
}
