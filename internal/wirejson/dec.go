package wirejson

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// Dec is a strict cursor over one canonical JSON document. It accepts what
// the append-encoders write and nothing else: no whitespace between tokens,
// keys in the writer's order, strings free of escapes. Failure is sticky —
// after the first unexpected byte every method is a no-op returning a zero
// value — so a decoder reads straight through and asks Done once at the end.
// Slices it returns alias the document.
type Dec struct {
	b      []byte
	i      int
	failed bool
}

// NewDec returns a cursor at the start of data.
func NewDec(data []byte) Dec { return Dec{b: data} }

// Done reports that every read succeeded and the document is used up.
func (d *Dec) Done() bool { return !d.failed && d.i == len(d.b) }

// OK reports that no read has failed yet — the guard of a list loop.
func (d *Dec) OK() bool { return !d.failed }

// Has consumes lit if the document continues with it.
func (d *Dec) Has(lit string) bool {
	if d.failed || len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// Lit consumes lit, failing if the document continues with anything else.
func (d *Dec) Lit(lit string) {
	if !d.Has(lit) {
		d.failed = true
	}
}

// Str consumes a string literal and returns its contents. The contents must
// be what they stand for: no escapes, no control bytes, valid UTF-8 (which
// encoding/json would silently rewrite).
func (d *Dec) Str() []byte {
	if d.failed || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.failed = true
		return nil
	}
	start := d.i + 1
	ascii := true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[start:j]
			if !ascii && !utf8.Valid(s) {
				d.failed = true
				return nil
			}
			d.i = j + 1
			return s
		case c == '\\' || c < 0x20:
			d.failed = true
			return nil
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.failed = true
	return nil
}

// String is Str copied out of the document.
func (d *Dec) String() string { return string(d.Str()) }

// Bool consumes true or false.
func (d *Dec) Bool() bool {
	if d.Has("true") {
		return true
	}
	d.Lit("false")
	return false
}

// Float consumes a JSON number and parses it as encoding/json parses a
// float64. A number float64 cannot hold fails.
func (d *Dec) Float() float64 {
	if d.failed {
		return 0
	}
	end, ok := scanNumber(d.b, d.i)
	if !ok {
		d.failed = true
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		d.failed = true
		return 0
	}
	d.i = end
	return f
}

// Floats consumes null or an array of numbers, as encoding/json decodes a
// []float64: null is a nil slice, [] an empty one.
func (d *Dec) Floats() []float64 {
	if d.Has("null") {
		return nil
	}
	d.Lit("[")
	if d.Has("]") {
		return []float64{}
	}
	// One pass to size the slice: the commas before the closing bracket.
	n := 1
	for j := d.i; j < len(d.b) && d.b[j] != ']'; j++ {
		if d.b[j] == ',' {
			n++
		}
	}
	out := make([]float64, 0, n)
	for d.OK() {
		out = append(out, d.Float())
		if d.Has("]") {
			return out
		}
		d.Lit(",")
	}
	return nil
}

// Time consumes a quoted RFC 3339 timestamp through time.Time's own JSON
// decoder.
func (d *Dec) Time() time.Time {
	start := d.i
	d.Str()
	var t time.Time
	if d.failed || t.UnmarshalJSON(d.b[start:d.i]) != nil {
		d.failed = true
		return time.Time{}
	}
	return t
}

// Value consumes one JSON value of any shape — the raw params or result a
// message carries — validating it as encoding/json's scanner would, and
// returns its bytes. Whitespace is allowed inside the value, not before it.
func (d *Dec) Value() []byte {
	if d.failed {
		return nil
	}
	end, ok := scanValue(d.b, d.i, 0)
	if !ok {
		d.failed = true
		return nil
	}
	v := d.b[d.i:end]
	d.i = end
	return v
}

// maxDepth bounds the nesting scanValue follows; deeper documents go to
// encoding/json, which has its own (larger) limit.
const maxDepth = 64

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanValue returns the index just past the JSON value starting at b[i].
func scanValue(b []byte, i, depth int) (int, bool) {
	if i >= len(b) || depth > maxDepth {
		return i, false
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '{':
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == '}' {
			return i + 1, true
		}
		for {
			var ok bool
			if i, ok = scanString(b, i); !ok {
				return i, false
			}
			i = skipSpace(b, i)
			if i >= len(b) || b[i] != ':' {
				return i, false
			}
			if i, ok = scanValue(b, skipSpace(b, i+1), depth+1); !ok {
				return i, false
			}
			i = skipSpace(b, i)
			if i >= len(b) {
				return i, false
			}
			if b[i] == '}' {
				return i + 1, true
			}
			if b[i] != ',' {
				return i, false
			}
			i = skipSpace(b, i+1)
		}
	case c == '[':
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == ']' {
			return i + 1, true
		}
		for {
			var ok bool
			if i, ok = scanValue(b, i, depth+1); !ok {
				return i, false
			}
			i = skipSpace(b, i)
			if i >= len(b) {
				return i, false
			}
			if b[i] == ']' {
				return i + 1, true
			}
			if b[i] != ',' {
				return i, false
			}
			i = skipSpace(b, i+1)
		}
	case c == '-' || (c >= '0' && c <= '9'):
		return scanNumber(b, i)
	case c == 't':
		return scanLit(b, i, "true")
	case c == 'f':
		return scanLit(b, i, "false")
	case c == 'n':
		return scanLit(b, i, "null")
	}
	return i, false
}

func scanLit(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// scanString validates a string literal with escapes, as encoding/json's
// scanner does: it checks escape syntax and rejects control bytes, and does
// not look at UTF-8.
func scanString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return i, false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		case c == '\\':
			i++
			if i >= len(b) {
				return i, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 {
					return i, false
				}
				for _, h := range b[i+1 : i+5] {
					if !(h >= '0' && h <= '9' || h >= 'a' && h <= 'f' || h >= 'A' && h <= 'F') {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

// scanNumber validates the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return i, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i, false
		}
		i = k
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}
