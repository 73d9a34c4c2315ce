// Package wirejson holds the single-pass JSON codec primitives of the step
// path: append-encoders whose output is byte-identical to encoding/json, and
// a strict decoder that reads exactly what those encoders write. Neither
// replaces encoding/json — each is a fast path in front of it. An encoder
// that meets a value encoding/json would refuse (a NaN, a year-10000
// timestamp) and a decoder that meets a byte it does not expect (an escape,
// whitespace, a reordered key) both report failure, and the caller hands the
// whole value to encoding/json, so behaviour on arbitrary input is
// encoding/json's by construction. The differential fuzz targets next to
// each codec hold the two to that.
package wirejson

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Appender is implemented by the wire types that cross every step. AppendJSON
// appends exactly the bytes json.Marshal would produce for the value, and
// fails exactly when json.Marshal would.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// StrictDecoder is implemented by the wire types that cross every step.
// DecodeStrict decodes data when it is the canonical encoding an Appender
// writes, leaving the receiver equal to what json.Unmarshal would make of a
// zero value; on anything else it reports false and leaves the receiver
// untouched.
type StrictDecoder interface {
	DecodeStrict(data []byte) bool
}

// Append appends the JSON encoding of v to dst: through v's own encoder when
// it has one, through json.Marshal otherwise.
func Append(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(Appender); ok {
		return a.AppendJSON(dst)
	}
	return AppendMarshal(dst, v)
}

// AppendMarshal appends json.Marshal(v) to dst — the slow path an Appender
// takes for a value its single pass cannot encode.
func AppendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// Unmarshal decodes data into v: through v's strict decoder when it has one
// and data is canonical, through json.Unmarshal otherwise. fellBack reports
// that a value with a strict decoder took the encoding/json path.
func Unmarshal(data []byte, v any) (fellBack bool, err error) {
	d, ok := v.(StrictDecoder)
	if ok && d.DecodeStrict(data) {
		return false, nil
	}
	return ok, json.Unmarshal(data, v)
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json's default encoder: short escapes for quote, backslash and
// \b \f \n \r \t, \u00xx for the remaining control bytes, HTML escaping
// of < > & as \u003c \u003e \u0026, \u2028/\u2029 for the JS line
// separators, and the literal \ufffd escape for invalid UTF-8 bytes.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f the way encoding/json encodes a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, two-digit
// exponents trimmed to one. ok is false for NaN and the infinities, which
// encoding/json refuses.
func AppendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendFloats appends a []float64 as encoding/json does: null for a nil
// slice, [] for an empty one.
func AppendFloats(dst []byte, fs []float64) (_ []byte, ok bool) {
	if fs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = AppendFloat(dst, f); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// AppendTime appends t as the quoted RFC 3339 string time.Time.MarshalJSON
// writes. ok is false where MarshalJSON fails: a year outside [0,9999] or a
// zone offset RFC 3339 cannot express.
func AppendTime(dst []byte, t time.Time) (_ []byte, ok bool) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, false
	}
	if _, offset := t.Zone(); offset%60 != 0 || offset <= -24*3600 || offset >= 24*3600 {
		return dst, false
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), true
}
