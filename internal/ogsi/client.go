package ogsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson"
)

// Client calls operations on a remote container. Its first call to a
// container is a signed envelope that also offers a security-context
// handshake; every later call goes MAC'd under the context the container
// accepted, and so does the container's reply (DESIGN.md §5a). A context the
// container no longer holds is re-established inside the same Call.
type Client struct {
	BaseURL string
	Cred    *gsi.Credential
	Trust   *gsi.TrustStore
	// HTTP carries the envelopes; its transport must end in a Transport (a
	// fault injector may wrap it). Nil means DefaultHTTPClient.
	HTTP *http.Client
	// Tracer, when set, opens a client span around every Call and carries
	// its traceparent inside the authenticated request payload. Nil disables
	// tracing (the traceparent of any span already in ctx still
	// propagates, so an untraced client does not break the chain).
	Tracer *trace.Tracer

	tel      *telemetry.Registry
	endpoint atomic.Pointer[endpoint]
}

// endpoint is BaseURL+"/ogsi" parsed once, and the security context the
// client holds with the container behind it. base remembers the BaseURL it
// was parsed from, so a caller that repoints the client gets a fresh parse
// and a fresh handshake.
type endpoint struct {
	base   string
	url    *url.URL
	secure atomic.Pointer[gsi.Context] // nil until a reply accepts a handshake

	mu      sync.Mutex
	pending *gsi.Handshake // offered and not yet accepted
}

// endpointFor returns the endpoint for the current BaseURL. Calls racing to
// make it agree on one, and so on one handshake.
func (c *Client) endpointFor() (*endpoint, error) {
	for {
		cur := c.endpoint.Load()
		if cur != nil && cur.base == c.BaseURL {
			return cur, nil
		}
		u, err := url.Parse(c.BaseURL + "/ogsi")
		if err != nil {
			return nil, err
		}
		if ep := (&endpoint{base: c.BaseURL, url: u}); c.endpoint.CompareAndSwap(cur, ep) {
			return ep, nil
		}
	}
}

// live returns the context to send under, dropping one that has expired or
// outlived a trust-set change.
func (ep *endpoint) live(now time.Time, trust *gsi.TrustStore) *gsi.Context {
	sc := ep.secure.Load()
	if sc != nil && !sc.Live(now, trust) {
		ep.secure.CompareAndSwap(sc, nil)
		return nil
	}
	return sc
}

// prepare decides how the next request goes: under the live context, or —
// when there is none, or signed is forced after a refusal — signed, carrying
// the handshake outstanding on this endpoint (drawn here if there is none).
// Calls racing to make the first handshake all offer the same one, which the
// container answers with one context.
func (ep *endpoint) prepare(now time.Time, trust *gsi.TrustStore, signed bool) (*gsi.Context, *gsi.Handshake, error) {
	if !signed {
		if sc := ep.live(now, trust); sc != nil {
			return sc, nil, nil
		}
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !signed {
		if sc := ep.live(now, trust); sc != nil {
			return sc, nil, nil
		}
	}
	if ep.pending == nil {
		h, err := gsi.NewHandshake()
		if err != nil {
			return nil, nil, err
		}
		ep.pending = h
	}
	return nil, ep.pending, nil
}

// install makes sc the context to send under if h is still the handshake
// outstanding: the first reply to accept it installs the context; later
// replies to the same offer carry the same context and must not reset its
// sequence numbers.
func (ep *endpoint) install(h *gsi.Handshake, sc *gsi.Context) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.pending != h {
		return false
	}
	ep.pending = nil
	ep.secure.Store(sc)
	return true
}

// MetricDecodeFallbacks names the counter that watches the single-pass
// receive path: request, response, params or result documents (ogsi, and the
// NTCP shapes core decodes on top of it) that were not in the canonical
// layout and went through encoding/json. It stays 0 between peers built from
// this tree; a non-zero rate means codec drift has silently turned the fast
// path off.
const MetricDecodeFallbacks = "ogsi.decode.fallbacks"

// Names of the series that watch message security (DESIGN.md §5a), on both
// ends: envelopes authenticated by signature and by MAC (a container counts
// requests, a client replies) and contexts established. A container also
// exports the contexts it holds and the MAC'd requests it refused, by
// reason. Between peers built from this tree a clean run reads one signed
// envelope each way per client–container pair and no refusal.
const (
	metricAuthSigned         = "ogsi.auth.signed"
	metricAuthMAC            = "ogsi.auth.mac"
	metricContextEstablished = "ogsi.context.established"
	metricContextActive      = "ogsi.context.active"
	metricContextRejected    = "ogsi.context.rejected."
)

// Names of the series a container keeps of its sessions: how many it has
// accepted (dials per run, seen from the container) and how many are open.
// A clean run through a pinned transport reads at most its cap per
// client–container pair.
const (
	metricSessionsAccepted = "ogsi.sessions.accepted"
	metricSessionsOpen     = "ogsi.sessions.open"
)

// contextRefusals names each reason a container refuses a MAC'd request.
var contextRefusals = []struct {
	err    error
	reason string
}{
	{gsi.ErrContextUnknown, "unknown"},
	{gsi.ErrContextExpired, "expired"},
	{gsi.ErrReplay, "replay"},
	{gsi.ErrBadMAC, "mac"},
	{gsi.ErrContextRevoked, "revoked"},
}

// registerCounters pre-registers the receive-path and message-security
// series at zero, so a scrape can tell "none" from "not wired".
func registerCounters(reg *telemetry.Registry, container bool) {
	for _, name := range []string{MetricDecodeFallbacks, metricAuthSigned, metricAuthMAC, metricContextEstablished} {
		reg.Counter(name)
	}
	if container {
		reg.Counter(metricSessionsAccepted)
		reg.Gauge(metricSessionsOpen)
		for _, r := range contextRefusals {
			reg.Counter(metricContextRejected + r.reason)
		}
	}
}

// UseTelemetry makes the client count receive-path fallbacks (see
// MetricDecodeFallbacks) and message-security events into reg. Call before
// traffic flows; nil disables counting.
func (c *Client) UseTelemetry(reg *telemetry.Registry) {
	if reg != nil {
		registerCounters(reg, false)
	}
	c.tel = reg
}

// noteFallback counts one fallback under name when telemetry is wired.
func (c *Client) noteFallback(name string, fellBack bool) {
	if fellBack {
		c.count(name)
	}
}

// count increments a counter when telemetry is wired.
func (c *Client) count(name string) {
	if c.tel != nil {
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
	return DefaultHTTPClient
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
	return c.callRaw(ctx, service, op, *paramsBuf, func(result []byte) error { return c.decode(result, out) })
}

// envelopeHeader is the header of every request. It is shared and never
// written: nothing on the way to the Transport adds a header, and a nil one
// would make http.Client copy the request to add an empty map.
var envelopeHeader = http.Header{}

// newPost builds the POST of body to u, whose body the Transport frames as
// it is, without re-parsing the URL on every call.
func newPost(ctx context.Context, u *url.URL, body []byte) *http.Request {
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Host:          u.Host,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        envelopeHeader,
		Body:          &envelope{b: body},
		ContentLength: int64(len(body)),
	}
	return req.WithContext(ctx)
}

// callRaw is Call with the params already encoded: one authenticated
// envelope out, one verified envelope back — or, when the container refused
// the context the request went under, a second exchange, signed, in which
// the request runs for the first time. decode reads the result of a call
// that succeeded while the pooled reply buffer it aliases is still live.
func (c *Client) callRaw(ctx context.Context, service, op string, rawParams []byte, decode func(result []byte) error) (err error) {
	var span *trace.Span
	if c.Tracer != nil {
		ctx, span = c.Tracer.Start(ctx, service+"."+op, trace.KindClient)
		span.SetAttr("peer.url", c.BaseURL)
		defer func() {
			span.SetError(err)
			span.End()
		}()
	}
	ep, err := c.endpointFor()
	if err != nil {
		return fmt.Errorf("ogsi: build request: %w", err)
	}
	bufs := [3]*[]byte{getBuf(), getBuf(), getBuf()}
	defer func() {
		for _, b := range bufs {
			putBuf(b)
		}
	}()
	resp, refused, err := c.exchange(ctx, span, ep, false, service, op, rawParams, bufs)
	if err == nil && refused {
		resp, _, err = c.exchange(ctx, span, ep, true, service, op, rawParams, bufs)
	}
	if err != nil {
		return err
	}
	// The server's span id, echoed in the authenticated response: lets the
	// timeline renderer pair this client span with its server span even
	// when a recorder ring has since evicted one side.
	if resp.Trace != "" {
		span.SetAttr("peer.span", resp.Trace)
	}
	if !resp.OK {
		return &RemoteError{Code: resp.Code, Message: resp.Error}
	}
	return decode(resp.Result)
}

// decode unmarshals a result into out (nil discards), counting a fallback to
// encoding/json.
func (c *Client) decode(result []byte, out any) error {
	if out == nil || len(result) == 0 {
		return nil
	}
	fellBack, err := wirejson.Unmarshal(result, out)
	c.noteFallback(MetricDecodeFallbacks, fellBack)
	if err != nil {
		return fmt.Errorf("ogsi: unmarshal result: %w", err)
	}
	return nil
}

// exchange is one request and its reply, encoded in one pass into the pooled
// bufs (payload, body, reply). The request goes MAC'd under the endpoint's
// live context unless signed is set or there is none; then it goes signed,
// offering the endpoint's outstanding handshake, and a reply that accepts the
// offer installs the context. The traceparent carried in the authenticated
// payload is the client span's when tracing here, else that of whatever span
// the caller's context already holds.
//
// The reply is verified from its bytes and decoded into the payload buffer
// the request no longer needs; the response returned aliases it. refused
// reports the container turning the context down: nothing ran, the context
// is dropped, and the caller resends with signed set.
func (c *Client) exchange(ctx context.Context, span *trace.Span, ep *endpoint, signed bool, service, op string, rawParams []byte, bufs [3]*[]byte) (resp response, refused bool, err error) {
	payloadBuf, bodyBuf, respBuf := bufs[0], bufs[1], bufs[2]
	sc, hs, err := ep.prepare(time.Now(), c.Trust, signed)
	if err != nil {
		return resp, false, fmt.Errorf("ogsi: handshake: %w", err)
	}
	offer := ""
	if hs != nil {
		offer = hs.Offer()
	}
	*payloadBuf = appendRequestJSON((*payloadBuf)[:0], service, op, rawParams, time.Now(), trace.SpanContextFromContext(ctx), offer)
	var seq uint64
	if sc != nil {
		seq = sc.NextSeq()
		*bodyBuf = sc.Seal((*bodyBuf)[:0], *payloadBuf, seq)
	} else if *bodyBuf, err = gsi.AppendSignedEnvelope((*bodyBuf)[:0], c.Cred, *payloadBuf); err != nil {
		return resp, false, fmt.Errorf("ogsi: sign request: %w", err)
	}
	respBody, err := c.post(ctx, ep.url, *bodyBuf, respBuf)
	if err != nil {
		return resp, false, err
	}

	verifyStart := time.Now()
	mode, authenticated := "mac", metricAuthMAC
	var (
		payload []byte
		server  string
		vinfo   gsi.VerifyInfo
	)
	if sc != nil {
		payload, err = sc.OpenReply((*payloadBuf)[:0], respBody, seq)
	}
	if sc == nil || errors.Is(err, gsi.ErrNotSealed) {
		mode, authenticated = "signed", metricAuthSigned
		payload, server, vinfo, err = openSigned(c.Trust, respBody, time.Now())
	}
	if span != nil {
		c.Tracer.RecordSpan(span.Context(), "gsi.verify", trace.KindInternal, verifyStart, time.Now(),
			trace.Attr{Key: "side", Value: "response"},
			trace.Attr{Key: "mode", Value: mode},
			trace.Attr{Key: "cached", Value: strconv.FormatBool(vinfo.CacheHit)})
	}
	if errors.Is(err, gsi.ErrBadEnvelope) {
		return resp, false, fmt.Errorf("ogsi: bad response envelope: %w", err)
	}
	if err != nil {
		return resp, false, fmt.Errorf("ogsi: response authentication: %w", err)
	}
	c.count(authenticated)
	*payloadBuf = payload
	fellBack, err := wirejson.Unmarshal(payload, &resp)
	c.noteFallback(MetricDecodeFallbacks, fellBack)
	if err != nil {
		return resp, false, fmt.Errorf("ogsi: bad response: %w", err)
	}
	if sc != nil && mode == "signed" {
		// To a MAC'd request the container signs one thing only: its refusal
		// of the context. Any other signed reply could be an old one replayed.
		if resp.OK || resp.Code != CodeContextRefused {
			return resp, false, fmt.Errorf("ogsi: signed reply to a request under a security context")
		}
		ep.secure.CompareAndSwap(sc, nil)
		return resp, true, nil
	}
	// An accept that does not complete leaves the endpoint signing, as a
	// container that makes no accept does.
	if hs != nil && resp.Accept != "" {
		if next, err := hs.Complete(resp.Accept, c.Cred.Identity(), server, vinfo); err == nil && ep.install(hs, next) {
			c.count(metricContextEstablished)
		}
	}
	return resp, false, nil
}

// post sends body to u and reads the reply into respBuf.
func (c *Client) post(ctx context.Context, u *url.URL, body []byte, respBuf *[]byte) ([]byte, error) {
	httpResp, err := c.httpClient().Do(newPost(ctx, u, body))
	if err != nil {
		return nil, fmt.Errorf("ogsi: transport: %w", err)
	}
	defer httpResp.Body.Close()
	respBody, err := readAllInto((*respBuf)[:0], io.LimitReader(httpResp.Body, maxBodyBytes))
	*respBuf = respBody
	if err != nil {
		return nil, fmt.Errorf("ogsi: read response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ogsi: http %d: %s", httpResp.StatusCode, bytes.TrimSpace(respBody))
	}
	return respBody, nil
}

// BatchOp is one operation of a CallBatch.
type BatchOp struct {
	Op     string
	Params any
	// Out receives the operation's result when it succeeds (nil discards).
	Out any
}

// CallBatch invokes several operations on one service in a single
// envelope over a single round trip — the batched frame the pipelined
// coordinator uses to fuse execute(N) with propose(N+1). The container
// dispatches the items in order and replies with one result per item, and
// each successful item's result is decoded into its op's Out while the
// reply is still in hand. A per-op fault does not fail the envelope: it
// comes back as faults[i], a *RemoteError (the contract a lone Call has),
// and faults is nil when every op succeeded.
func (c *Client) CallBatch(ctx context.Context, service string, ops []BatchOp) (faults []error, err error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("ogsi: empty batch")
	}
	paramsBuf := getBuf()
	defer putBuf(paramsBuf)
	if *paramsBuf, err = appendBatchItemsJSON((*paramsBuf)[:0], ops); err != nil {
		return nil, err
	}
	err = c.callRaw(ctx, service, "batch", *paramsBuf, func(result []byte) error {
		results := make(batchResults, 0, len(ops))
		if err := c.decode(result, &results); err != nil {
			return err
		}
		if len(results) != len(ops) {
			return fmt.Errorf("ogsi: batch returned %d results for %d ops", len(results), len(ops))
		}
		for i, r := range results {
			if !r.OK {
				if faults == nil {
					faults = make([]error, len(ops))
				}
				faults[i] = &RemoteError{Code: r.Code, Message: r.Error}
			} else if err := c.decode(r.Result, ops[i].Out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return faults, nil
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
