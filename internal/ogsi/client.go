package ogsi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson"
)

// Client calls operations on a remote container, signing each request with
// its credential and verifying the container's response signature.
type Client struct {
	BaseURL string
	Cred    *gsi.Credential
	Trust   *gsi.TrustStore
	// HTTP is the underlying transport; tests and the fault-injection
	// harness substitute clients whose dialers misbehave. Nil means
	// http.DefaultClient.
	HTTP *http.Client
	// Clock overrides the time source used for envelope verification.
	Clock func() time.Time
	// Tracer, when set, opens a client span around every Call and carries
	// its traceparent inside the signed request payload. Nil disables
	// tracing (the traceparent of any span already in ctx still
	// propagates, so an untraced client does not break the chain).
	Tracer *trace.Tracer

	tel      *telemetry.Registry
	endpoint atomic.Pointer[endpoint]
}

// endpoint is BaseURL+"/ogsi" parsed once; base remembers the BaseURL it was
// parsed from, so a caller that repoints the client gets a fresh parse.
type endpoint struct {
	base string
	url  *url.URL
}

func (c *Client) endpointURL() (*url.URL, error) {
	if ep := c.endpoint.Load(); ep != nil && ep.base == c.BaseURL {
		return ep.url, nil
	}
	u, err := url.Parse(c.BaseURL + "/ogsi")
	if err != nil {
		return nil, err
	}
	c.endpoint.Store(&endpoint{base: c.BaseURL, url: u})
	return u, nil
}

// Names of the counters that watch the single-pass receive path: envelopes
// (gsi) and request, response, params or result documents (ogsi, and the
// NTCP shapes core decodes on top of it) that were not in the canonical
// layout and went through encoding/json. Both stay 0 between peers built
// from this tree; a non-zero rate means codec drift has silently turned the
// fast path off.
const (
	MetricWireFallbacks   = "gsi.wire.fallbacks"
	MetricDecodeFallbacks = "ogsi.decode.fallbacks"
)

// registerFallbackCounters pre-registers both counters at zero, so a scrape
// can tell "no fallbacks" from "not wired".
func registerFallbackCounters(reg *telemetry.Registry) {
	reg.Counter(MetricWireFallbacks)
	reg.Counter(MetricDecodeFallbacks)
}

// UseTelemetry makes the client count receive-path fallbacks into reg (see
// MetricWireFallbacks). Call before traffic flows; nil disables counting.
func (c *Client) UseTelemetry(reg *telemetry.Registry) {
	if reg != nil {
		registerFallbackCounters(reg)
	}
	c.tel = reg
}

// noteFallback counts one fallback under name when telemetry is wired.
func (c *Client) noteFallback(name string, fellBack bool) {
	if fellBack && c.tel != nil {
		c.tel.Counter(name).Inc()
	}
}

// NewClient builds a client for the container at baseURL
// (e.g. "http://127.0.0.1:4455").
func NewClient(baseURL string, cred *gsi.Credential, trust *gsi.TrustStore) *Client {
	return &Client{BaseURL: baseURL, Cred: cred, Trust: trust}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	// The tuned shared transport, not http.DefaultClient: callers that never
	// set HTTP get keep-alive reuse against their container and bounded
	// dials/overall deadline instead of a timeout-less default.
	return DefaultHTTPClient
}

func (c *Client) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// RemoteError is a fault returned by the remote service.
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %s", e.Code, e.Message) }

// IsRemoteCode reports whether err is a RemoteError with the given code.
func IsRemoteCode(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// Call invokes service.op with params (marshalled to JSON); on success the
// result is unmarshalled into out (which may be nil to discard).
// Transport-level failures come back as ordinary errors (retryable);
// service faults come back as *RemoteError (not retryable unless the code
// says so).
func (c *Client) Call(ctx context.Context, service, op string, params, out any) error {
	paramsBuf := getBuf()
	defer putBuf(paramsBuf)
	var err error
	if *paramsBuf, err = wirejson.Append((*paramsBuf)[:0], params); err != nil {
		return fmt.Errorf("ogsi: marshal params: %w", err)
	}
	return c.callRaw(ctx, service, op, *paramsBuf, out)
}

// jsonContentType is shared by every request: net/http does not modify a
// header's value slice.
var jsonContentType = []string{"application/json"}

// newPost builds the POST of body to the client's endpoint: what
// http.NewRequestWithContext builds for a *bytes.Reader (content length,
// rewindable GetBody), without re-parsing the URL on every call.
func (c *Client) newPost(ctx context.Context, body []byte) (*http.Request, error) {
	u, err := c.endpointURL()
	if err != nil {
		return nil, err
	}
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Host:          u.Host,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonContentType},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		},
	}
	return req.WithContext(ctx), nil
}

// callRaw is Call with the params already encoded: one signed envelope out,
// one verified envelope back.
func (c *Client) callRaw(ctx context.Context, service, op string, rawParams []byte, out any) (err error) {
	var span *trace.Span
	if c.Tracer != nil {
		ctx, span = c.Tracer.Start(ctx, service+"."+op, trace.KindClient)
		span.SetAttr("peer.url", c.BaseURL)
		defer func() {
			span.SetError(err)
			span.End()
		}()
	}

	// Single-pass encoding into pooled buffers: the request wire form is
	// appended directly (no intermediate request struct marshal), signed,
	// and wrapped in an envelope whose chain encoding is memoized on the
	// credential. The traceparent carried in the signed payload is the
	// client span's when tracing here, else that of whatever span the
	// caller's context already holds.
	payloadBuf := getBuf()
	defer putBuf(payloadBuf)
	*payloadBuf = appendRequestJSON((*payloadBuf)[:0], service, op, rawParams, c.now(), trace.SpanContextFromContext(ctx))
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	*bodyBuf, err = gsi.AppendSignedEnvelope((*bodyBuf)[:0], c.Cred, *payloadBuf)
	if err != nil {
		return fmt.Errorf("ogsi: sign request: %w", err)
	}
	httpReq, err := c.newPost(ctx, *bodyBuf)
	if err != nil {
		return fmt.Errorf("ogsi: build request: %w", err)
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return fmt.Errorf("ogsi: transport: %w", err)
	}
	defer httpResp.Body.Close()
	respBuf := getBuf()
	defer putBuf(respBuf)
	respBody, err := readAllInto((*respBuf)[:0], io.LimitReader(httpResp.Body, 16<<20))
	*respBuf = respBody
	if err != nil {
		return fmt.Errorf("ogsi: read response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("ogsi: http %d: %s", httpResp.StatusCode, bytes.TrimSpace(respBody))
	}
	// The receive side mirrors the send side: the response envelope is
	// verified from its bytes and its payload decoded into the buffer the
	// request payload no longer needs. Everything decoded below aliases that
	// buffer, and nothing of it outlives this call: results are copied out by
	// their decoders.
	verifyStart := time.Now()
	payload, _, vinfo, err := c.Trust.OpenWire((*payloadBuf)[:0], respBody, c.now())
	if span != nil {
		c.Tracer.RecordSpan(span.Context(), "gsi.verify", trace.KindInternal,
			verifyStart, time.Now(), map[string]string{
				"side":   "response",
				"cached": strconv.FormatBool(vinfo.CacheHit),
			})
	}
	c.noteFallback(MetricWireFallbacks, vinfo.WireFallback)
	if errors.Is(err, gsi.ErrBadEnvelope) {
		return fmt.Errorf("ogsi: bad response envelope: %w", err)
	}
	if err != nil {
		return fmt.Errorf("ogsi: response authentication: %w", err)
	}
	*payloadBuf = payload
	var resp response
	fellBack, err := wirejson.Unmarshal(payload, &resp)
	c.noteFallback(MetricDecodeFallbacks, fellBack)
	if err != nil {
		return fmt.Errorf("ogsi: bad response: %w", err)
	}
	// The server's span id, echoed in the signed response: lets the
	// timeline renderer pair this client span with its server span even
	// when a recorder ring has since evicted one side.
	if resp.Trace != "" {
		span.SetAttr("peer.span", resp.Trace)
	}
	if !resp.OK {
		return &RemoteError{Code: resp.Code, Message: resp.Error}
	}
	if out != nil && len(resp.Result) > 0 {
		fellBack, err := wirejson.Unmarshal(resp.Result, out)
		c.noteFallback(MetricDecodeFallbacks, fellBack)
		if err != nil {
			return fmt.Errorf("ogsi: unmarshal result: %w", err)
		}
	}
	return nil
}

// BatchOp is one operation of a CallBatch.
type BatchOp struct {
	Op     string
	Params any
}

// BatchResult is one operation's outcome within a batch. The envelope-level
// error channel (transport, authentication) stays on CallBatch itself;
// per-op service faults land here.
type BatchResult struct {
	OK     bool            `json:"ok"`
	Code   string          `json:"code,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Err returns the operation's service fault as a *RemoteError, or nil when
// the operation succeeded — the same contract a lone Call has.
func (r *BatchResult) Err() error {
	if r.OK {
		return nil
	}
	return &RemoteError{Code: r.Code, Message: r.Error}
}

// Decode unmarshals the operation's result into out (nil discards),
// returning the operation's fault if it had one.
func (r *BatchResult) Decode(out any) error {
	if err := r.Err(); err != nil {
		return err
	}
	if out == nil || len(r.Result) == 0 {
		return nil
	}
	if err := json.Unmarshal(r.Result, out); err != nil {
		return fmt.Errorf("ogsi: unmarshal batch result: %w", err)
	}
	return nil
}

// CallBatch invokes several operations on one service in a single signed
// envelope over a single round trip — the batched frame the pipelined
// coordinator uses to fuse execute(N) with propose(N+1). The container
// dispatches the items in order and replies with one result per item;
// a per-op fault does not fail the envelope. The returned slice always has
// len(ops) entries when err is nil.
func (c *Client) CallBatch(ctx context.Context, service string, ops []BatchOp) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("ogsi: empty batch")
	}
	paramsBuf := getBuf()
	defer putBuf(paramsBuf)
	var err error
	if *paramsBuf, err = appendBatchItemsJSON((*paramsBuf)[:0], ops); err != nil {
		return nil, err
	}
	results := make(batchResults, 0, len(ops))
	if err := c.callRaw(ctx, service, "batch", *paramsBuf, &results); err != nil {
		return nil, err
	}
	if len(results) != len(ops) {
		return nil, fmt.Errorf("ogsi: batch returned %d results for %d ops", len(results), len(ops))
	}
	return results, nil
}

// FindServiceData fetches SDEs from a remote service (all of them when no
// names are given).
func (c *Client) FindServiceData(ctx context.Context, service string, names ...string) ([]SDE, error) {
	var out []SDE
	err := c.Call(ctx, service, "findServiceData", inspectParams{Names: names}, &out)
	return out, err
}

// LastChanged fetches the most-recently-changed SDE of a remote service.
func (c *Client) LastChanged(ctx context.Context, service string) (SDE, error) {
	var out SDE
	err := c.Call(ctx, service, "lastChanged", nil, &out)
	return out, err
}

// WaitServiceData long-polls a remote SDE until its version exceeds
// sinceVersion or the server-side timeout lapses (CodeUnavailable — re-arm
// with the same cursor). This is the OGSI notification pattern without a
// callback channel: the subscriber holds the connection open.
func (c *Client) WaitServiceData(ctx context.Context, service, name string, sinceVersion int, timeout time.Duration) (SDE, error) {
	var out SDE
	err := c.Call(ctx, service, "waitServiceData", waitParams{
		Name: name, SinceVersion: sinceVersion, TimeoutSeconds: timeout.Seconds(),
	}, &out)
	return out, err
}

// WatchServiceData re-arms WaitServiceData in a loop, delivering each new
// version to deliver until ctx ends. Long-poll timeouts are silent
// re-arms; other errors end the watch and are returned.
func (c *Client) WatchServiceData(ctx context.Context, service, name string, timeout time.Duration, deliver func(SDE)) error {
	version := 0
	for {
		sde, err := c.WaitServiceData(ctx, service, name, version, timeout)
		switch {
		case err == nil:
			version = sde.Version
			deliver(sde)
		case IsRemoteCode(err, CodeUnavailable):
			// Quiet interval; re-arm.
		case ctx.Err() != nil:
			return nil
		default:
			return err
		}
	}
}

// RequestTermination extends the soft-state lifetime of a remote resource.
func (c *Client) RequestTermination(ctx context.Context, service, id string, ttl time.Duration) error {
	return c.Call(ctx, service, "requestTermination",
		terminationParams{ID: id, TTLSeconds: ttl.Seconds()}, nil)
}
