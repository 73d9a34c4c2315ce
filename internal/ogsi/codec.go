package ogsi

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson"
)

// maxPooledBuf bounds what goes back into the pool so one oversized
// request/response does not pin memory forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readAllInto reads r to EOF, appending into dst (reusing its capacity —
// the pooled-buffer replacement for io.ReadAll), and returns the filled
// slice.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// appendRequestJSON encodes the request wire form in one pass; params must
// already be JSON (empty means null), and the traceparent of sc (absent when
// sc is invalid, matching the struct's omitempty semantics) is hex-encoded
// straight into dst. offer is a handshake offer ("" for none).
func appendRequestJSON(dst []byte, service, op string, params []byte, sent time.Time, sc trace.SpanContext, offer string) []byte {
	dst = append(dst, `{"service":`...)
	dst = wirejson.AppendString(dst, service)
	dst = append(dst, `,"op":`...)
	dst = wirejson.AppendString(dst, op)
	dst = append(dst, `,"params":`...)
	if len(params) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, params...)
	}
	dst = append(dst, `,"sent":"`...)
	dst = sent.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	if sc.IsValid() {
		dst = append(dst, `,"trace":"`...)
		dst = sc.AppendTraceparent(dst)
		dst = append(dst, '"')
	}
	if offer != "" {
		dst = append(dst, `,"offer":`...)
		dst = wirejson.AppendString(dst, offer)
	}
	return append(dst, '}')
}

// appendBatchItemsJSON encodes the params of a "batch" op — the (op,
// params) list — in one pass, byte-identical to json.Marshal of the
// corresponding []batchItem with each op's params marshalled.
func appendBatchItemsJSON(dst []byte, ops []BatchOp) ([]byte, error) {
	dst = append(dst, '[')
	for i := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"op":`...)
		dst = wirejson.AppendString(dst, ops[i].Op)
		dst = append(dst, `,"params":`...)
		var err error
		if dst, err = wirejson.Append(dst, ops[i].Params); err != nil {
			return dst, fmt.Errorf("ogsi: marshal batch params[%d]: %w", i, err)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendResponseListJSON encodes a batch's per-item responses in one pass,
// byte-identical to json.Marshal of the []*response slice.
func appendResponseListJSON(dst []byte, resps []*response) []byte {
	dst = append(dst, '[')
	for i, r := range resps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResponseJSON(dst, r)
	}
	return append(dst, ']')
}

// appendResponseJSON encodes the response wire form in one pass, matching
// the struct's omitempty semantics; Result must already be JSON.
func appendResponseJSON(dst []byte, resp *response) []byte {
	dst = append(dst, `{"ok":`...)
	dst = strconv.AppendBool(dst, resp.OK)
	if resp.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = wirejson.AppendString(dst, resp.Code)
	}
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = wirejson.AppendString(dst, resp.Error)
	}
	if len(resp.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, resp.Result...)
	}
	if resp.Trace != "" {
		dst = append(dst, `,"trace":`...)
		dst = wirejson.AppendString(dst, resp.Trace)
	}
	if resp.Accept != "" {
		dst = append(dst, `,"accept":`...)
		dst = wirejson.AppendString(dst, resp.Accept)
	}
	return append(dst, '}')
}

// The strict decoders below read exactly what the appenders above write, in
// one pass and without reflection; wirejson.Unmarshal hands anything else to
// encoding/json. Raw params and results alias the decoded document.

// DecodeStrict implements wirejson.StrictDecoder.
func (r *request) DecodeStrict(data []byte) bool {
	var out request
	d := wirejson.NewDec(data)
	d.Lit(`{"service":`)
	out.Service = d.String()
	d.Lit(`,"op":`)
	out.Op = d.String()
	d.Lit(`,"params":`)
	out.Params = d.Value()
	d.Lit(`,"sent":`)
	out.Sent = d.Time()
	if d.Has(`,"trace":`) {
		out.Trace = d.String()
	}
	if d.Has(`,"offer":`) {
		out.Offer = d.String()
	}
	d.Lit("}")
	if !d.Done() {
		return false
	}
	*r = out
	return true
}

// DecodeStrict implements wirejson.StrictDecoder.
func (r *response) DecodeStrict(data []byte) bool {
	var out response
	d := wirejson.NewDec(data)
	out.OK, out.Code, out.Error, out.Result = decodeOutcome(&d)
	if d.Has(`,"trace":`) {
		out.Trace = d.String()
	}
	if d.Has(`,"accept":`) {
		out.Accept = d.String()
	}
	d.Lit("}")
	if !d.Done() {
		return false
	}
	*r = out
	return true
}

// decodeOutcome reads the fields a response and a batch result share, up to
// but not including the closing brace.
func decodeOutcome(d *wirejson.Dec) (ok bool, code, errMsg string, result json.RawMessage) {
	d.Lit(`{"ok":`)
	ok = d.Bool()
	if d.Has(`,"code":`) {
		code = d.String()
	}
	if d.Has(`,"error":`) {
		errMsg = d.String()
	}
	if d.Has(`,"result":`) {
		result = d.Value()
	}
	return ok, code, errMsg, result
}

// batchItems is the params of a "batch" op on the server side.
type batchItems []batchItem

// DecodeStrict implements wirejson.StrictDecoder.
func (b *batchItems) DecodeStrict(data []byte) bool {
	out := batchItems{}
	d := wirejson.NewDec(data)
	d.Lit("[")
	for !d.Has("]") && d.OK() {
		if len(out) > 0 {
			d.Lit(",")
		}
		var it batchItem
		d.Lit(`{"op":`)
		it.Op = d.String()
		d.Lit(`,"params":`)
		it.Params = d.Value()
		d.Lit("}")
		out = append(out, it)
	}
	if !d.Done() {
		return false
	}
	*b = out
	return true
}

// batchResult is one item of a "batch" op's result on the client side.
type batchResult struct {
	OK     bool            `json:"ok"`
	Code   string          `json:"code,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// batchResults is the result of a "batch" op on the client side.
type batchResults []batchResult

// DecodeStrict implements wirejson.StrictDecoder. The results alias data:
// CallBatch decodes them into their ops' outs before the reply buffer goes
// back to the pool.
func (b *batchResults) DecodeStrict(data []byte) bool {
	out := (*b)[:0]
	if out == nil {
		out = batchResults{} // as encoding/json reads "[]"
	}
	d := wirejson.NewDec(data)
	d.Lit("[")
	for !d.Has("]") && d.OK() {
		if len(out) > 0 {
			d.Lit(",")
		}
		var r batchResult
		r.OK, r.Code, r.Error, r.Result = decodeOutcome(&d)
		d.Lit("}")
		out = append(out, r)
	}
	if !d.Done() {
		return false
	}
	*b = out
	return true
}
