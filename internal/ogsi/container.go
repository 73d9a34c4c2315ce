package ogsi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson"
)

// Caller identifies the authenticated, authorized origin of a request.
type Caller struct {
	// Identity is the Grid identity (base subject of the credential chain).
	Identity string
	// Account is the site-local account the gridmap assigned.
	Account string
}

// Handler implements one operation of a grid service. params aliases the
// transport's pooled receive buffer and is valid only until the handler
// returns: decode it, do not keep it.
type Handler func(ctx context.Context, caller Caller, params json.RawMessage) (any, error)

// OpError is a structured service fault with a machine-readable code, so
// clients can distinguish, e.g., a policy rejection from a missing
// transaction.
type OpError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *OpError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errf builds an OpError.
func Errf(code, format string, args ...any) *OpError {
	return &OpError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Standard fault codes.
const (
	CodeNotFound    = "not-found"
	CodeDenied      = "denied"
	CodeBadRequest  = "bad-request"
	CodeConflict    = "conflict"
	CodeInternal    = "internal"
	CodeUnavailable = "unavailable"
	// CodeContextRefused answers a MAC'd request whose security context the
	// container does not hold (unknown, evicted, expired, revoked) or whose
	// MAC or sequence number does not check. It comes in a signed envelope,
	// before anything is dispatched; Client.Call drops the context and resends
	// once as a signed handshake.
	CodeContextRefused = "context-refused"
)

// Service is one stateful grid service: a set of named operations plus its
// service data elements and soft-state resources.
type Service struct {
	name      string
	mu        sync.RWMutex
	ops       map[string]Handler
	SDEs      *SDEStore
	Lifetimes *LifetimeManager
}

// NewService creates an empty service on the real environment.
func NewService(name string) *Service { return NewServiceOn(runtime.Env{}, name) }

// NewServiceOn creates an empty service whose elements and lifetimes read
// env's clock: a service built by a component on an Env (NTCP's server)
// stamps and expires on that component's time.
func NewServiceOn(env runtime.Env, name string) *Service {
	return &Service{
		name:      name,
		ops:       make(map[string]Handler),
		SDEs:      newSDEStore(env),
		Lifetimes: newLifetimeManager(env),
	}
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// RegisterOp adds an operation; registering a duplicate name panics (a
// programming error caught at wiring time).
func (s *Service) RegisterOp(op string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ops[op]; dup {
		panic(fmt.Sprintf("ogsi: duplicate op %s.%s", s.name, op))
	}
	s.ops[op] = h
}

func (s *Service) handler(op string) (Handler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.ops[op]
	return h, ok
}

// request is the wire form of a service call (carried inside a signed or
// MAC'd envelope). Trace is the caller's W3C traceparent: carrying it inside
// the authenticated payload (rather than an HTTP header) means the trace
// lineage is covered by the envelope signature or MAC like everything else.
// Offer is a security-context handshake offer (gsi.Handshake), carried by a
// signed request only.
type request struct {
	Service string          `json:"service"`
	Op      string          `json:"op"`
	Params  json.RawMessage `json:"params"`
	Sent    time.Time       `json:"sent"`
	Trace   string          `json:"trace,omitempty"`
	Offer   string          `json:"offer,omitempty"`
}

// response is the wire form of a service reply. Trace echoes the server
// span's traceparent so the client can link its span to the server's.
// Accept answers the request's Offer (gsi.ContextTable.Accept), in a signed
// reply.
type response struct {
	OK     bool            `json:"ok"`
	Code   string          `json:"code,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Trace  string          `json:"trace,omitempty"`
	Accept string          `json:"accept,omitempty"`
}

// inspectParams is the FindServiceData request body.
type inspectParams struct {
	Names []string `json:"names"`
}

// terminationParams is the RequestTermination request body.
type terminationParams struct {
	ID         string  `json:"id"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// waitParams is the long-poll notification request body.
type waitParams struct {
	Name           string  `json:"name"`
	SinceVersion   int     `json:"since_version"`
	TimeoutSeconds float64 `json:"timeout_seconds"`
}

// batchItem is one operation of a batched call: the op name plus its
// already-encoded params. The client encodes these with
// appendBatchItemsJSON; the wire forms must stay in sync.
type batchItem struct {
	Op     string          `json:"op"`
	Params json.RawMessage `json:"params"`
}

// maxBatchOps bounds one batch. The coordinator fuses two ops per step;
// the bound exists so a malformed client cannot turn one signed envelope
// into unbounded server work.
const maxBatchOps = 16

// Container hosts services behind a GSI-secured HTTP endpoint. It is the
// process-level unit the paper calls an "NTCP server" host: one container
// per site, hosting that site's services.
type Container struct {
	cred     *gsi.Credential
	trust    *gsi.TrustStore
	gridmap  *gsi.Gridmap
	contexts *gsi.ContextTable
	env      runtime.Env

	mu       sync.RWMutex
	services map[string]*Service
	tel      *telemetry.Registry
	ops      map[opKey]*opMetrics // per-op series in tel; reset with it
	tracer   *trace.Tracer

	srv        *runtime.HTTPServer
	stopReaper chan struct{}
	reaperOnce sync.Once

	// base is the context every session's dispatches derive from; it ends
	// when Stop returns. polls ends when Stop begins, and with it every
	// parked long-poll.
	base, polls            context.Context
	cancelBase, cancelPoll context.CancelFunc

	// The sessions open, each either idle (waiting for a frame) or busy
	// (dispatching one). Once draining, no session opens and each closes
	// after its reply; sessGone is closed when the last one has.
	sessMu   sync.Mutex
	sessions map[*serverSession]struct{}
	draining bool
	sessGone chan struct{}

	// lifecycle state for health probes: 0 new, 1 serving, 2 draining,
	// 3 stopped. Stop flips to draining before it drains sessions so a
	// readiness aggregator deregisters the endpoint ahead of the listener
	// closing.
	state atomic.Int32
}

const (
	contNew = int32(iota)
	contServing
	contDraining
	contStopped
)

// NewContainer creates a container with the given server credential, trust
// store, and gridmap. It records per-service/per-op request counts, fault
// codes, and latency histograms into a telemetry registry (its own by
// default; share one via UseTelemetry) and serves the registry snapshot at
// the /metrics HTTP endpoint and as a computed "metrics" SDE on every
// hosted service.
func NewContainer(cred *gsi.Credential, trust *gsi.TrustStore, gridmap *gsi.Gridmap) *Container {
	return newContainer(runtime.Env{}, cred, trust, gridmap)
}

// newContainer is NewContainer on env: its clock checks credentials and
// security contexts, and its network carries the listener.
func newContainer(env runtime.Env, cred *gsi.Credential, trust *gsi.TrustStore, gridmap *gsi.Gridmap) *Container {
	c := &Container{
		env:      env,
		cred:     cred,
		trust:    trust,
		gridmap:  gridmap,
		contexts: gsi.NewContextTable(trust),
		services: make(map[string]*Service),
		tel:      telemetry.NewRegistry(),
		ops:      make(map[opKey]*opMetrics),
		sessions: make(map[*serverSession]struct{}),
	}
	c.base, c.cancelBase = context.WithCancel(context.Background())
	c.polls, c.cancelPoll = context.WithCancel(c.base)
	c.register(c.tel)
	return c
}

// register pre-registers the container's series on reg, and as gauges read
// at snapshot time the security contexts it holds and the trust store's
// verified-chain cache totals: gauges, not counters, because the store may
// be shared between containers and its totals are store-wide.
func (c *Container) register(reg *telemetry.Registry) {
	registerCounters(reg, true)
	reg.GaugeFunc(metricContextActive, func() float64 { return float64(c.contexts.Len()) })
	if c.trust != nil {
		reg.GaugeFunc("gsi.chaincache.hits", func() float64 {
			hits, _ := c.trust.CacheStats()
			return float64(hits)
		})
		reg.GaugeFunc("gsi.chaincache.misses", func() float64 {
			_, misses := c.trust.CacheStats()
			return float64(misses)
		})
	}
}

// UseTelemetry replaces the container's registry — the way a site shares one
// registry between its container and the services it hosts (so /metrics
// shows transport and service metrics together). Call before Start.
func (c *Container) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.register(reg)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = reg
	c.ops = make(map[opKey]*opMetrics)
}

// Telemetry returns the container's metrics registry.
func (c *Container) Telemetry() *telemetry.Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tel
}

// UseTracer enables distributed tracing: every authenticated request gets
// a server span (parented under the caller's traceparent when the signed
// payload carries one), and the tracer's recorder is served at GET /trace.
// Call before Start; nil disables tracing.
func (c *Container) UseTracer(t *trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// Tracer returns the container's tracer (nil when tracing is off).
func (c *Container) Tracer() *trace.Tracer {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tracer
}

// AddService registers a service; duplicate names panic. The service gains a
// computed "metrics" SDE exposing the container's telemetry snapshot, so
// remote clients can inspect metrics through plain FindServiceData.
func (c *Container) AddService(s *Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.services[s.Name()]; dup {
		panic(fmt.Sprintf("ogsi: duplicate service %s", s.Name()))
	}
	c.services[s.Name()] = s
	s.SDEs.SetComputed("metrics", func() any { return c.Telemetry().Snapshot() })
}

// ReplaceService atomically swaps in a service under a name that is already
// registered, returning the displaced service. In-flight requests against
// the old service finish against it; subsequent dispatches see the new one.
// This is the hook a site-daemon restart uses: a fresh NTCP server (empty
// transaction table) takes over the same service name without tearing down
// the container's listener or TLS state.
func (c *Container) ReplaceService(s *Service) (*Service, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.services[s.Name()]
	if !ok {
		return nil, fmt.Errorf("ogsi: no service %s to replace", s.Name())
	}
	c.services[s.Name()] = s
	s.SDEs.SetComputed("metrics", func() any { return c.Telemetry().Snapshot() })
	return old, nil
}

// Service returns a hosted service by name.
func (c *Container) Service(name string) (*Service, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.services[name]
	return s, ok
}

// opKey names one operation of one service.
type opKey struct{ service, op string }

// opMetrics are the per-op series dispatch records into, resolved once per
// (service, op) rather than by building three metric names per request.
type opMetrics struct {
	prefix   string // "ogsi.<service>.<op>"
	requests *telemetry.Counter
	seconds  *telemetry.Histogram
}

// metricsFor returns the registry and the op's series in it.
func (c *Container) metricsFor(service, op string) (*telemetry.Registry, *opMetrics) {
	key := opKey{service, op}
	c.mu.RLock()
	tel, m := c.tel, c.ops[key]
	c.mu.RUnlock()
	if m != nil {
		return tel, m
	}
	prefix := "ogsi." + service + "." + op
	m = &opMetrics{
		prefix:   prefix,
		requests: tel.Counter(prefix + ".requests"),
		seconds:  tel.Histogram(prefix + ".seconds"),
	}
	c.mu.Lock()
	if c.tel == tel { // else UseTelemetry swapped the registry meanwhile: do not cache
		c.ops[key] = m
	}
	c.mu.Unlock()
	return tel, m
}

// dispatch runs one decoded request, recording per-service/per-op request
// counts, fault codes, and handler latency.
func (c *Container) dispatch(ctx context.Context, caller Caller, req *request) *response {
	tel, m := c.metricsFor(req.Service, req.Op)
	m.requests.Inc()
	start := time.Now()
	resp := c.dispatchInner(ctx, caller, req)
	m.seconds.ObserveDuration(time.Since(start))
	if !resp.OK {
		tel.Counter(m.prefix + ".faults." + resp.Code).Inc()
		tel.Events().Record(c.env.Now(), "ogsi", "fault", map[string]any{
			"service": req.Service, "op": req.Op, "code": resp.Code, "error": resp.Error,
		})
	}
	return resp
}

func (c *Container) dispatchInner(ctx context.Context, caller Caller, req *request) *response {
	svc, ok := c.Service(req.Service)
	if !ok {
		return faultResponse(Errf(CodeNotFound, "no service %q", req.Service))
	}
	var (
		result any
		err    error
	)
	switch req.Op {
	case "findServiceData":
		var p inspectParams
		if len(req.Params) > 0 {
			if uerr := json.Unmarshal(req.Params, &p); uerr != nil {
				return faultResponse(Errf(CodeBadRequest, "bad inspect params: %v", uerr))
			}
		}
		result = svc.SDEs.Query(p.Names...)
	case "lastChanged":
		sde, ok := svc.SDEs.LastChanged()
		if !ok {
			return faultResponse(Errf(CodeNotFound, "service %q has no changed data", req.Service))
		}
		result = sde
	case "waitServiceData":
		var p waitParams
		if uerr := json.Unmarshal(req.Params, &p); uerr != nil {
			return faultResponse(Errf(CodeBadRequest, "bad wait params: %v", uerr))
		}
		timeout := time.Duration(p.TimeoutSeconds * float64(time.Second))
		if timeout <= 0 || timeout > 30*time.Second {
			timeout = 30 * time.Second
		}
		waitCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		defer context.AfterFunc(c.polls, cancel)() // Stop ends parked polls
		sde, werr := svc.SDEs.WaitChange(waitCtx, p.Name, p.SinceVersion)
		if werr != nil {
			// Long-poll timeout: the client re-arms with the same cursor.
			return faultResponse(Errf(CodeUnavailable, "no change on %q past version %d", p.Name, p.SinceVersion))
		}
		result = sde
	case "requestTermination":
		var p terminationParams
		if uerr := json.Unmarshal(req.Params, &p); uerr != nil {
			return faultResponse(Errf(CodeBadRequest, "bad termination params: %v", uerr))
		}
		if !svc.Lifetimes.RequestTermination(p.ID, time.Duration(p.TTLSeconds*float64(time.Second))) {
			return faultResponse(Errf(CodeNotFound, "no resource %q", p.ID))
		}
		result = map[string]bool{"extended": true}
	case "batch":
		return c.runBatch(ctx, caller, req)
	default:
		h, ok := svc.handler(req.Op)
		if !ok {
			return faultResponse(Errf(CodeNotFound, "service %q has no op %q", req.Service, req.Op))
		}
		result, err = h(ctx, caller, req.Params)
	}
	if err != nil {
		return faultResponse(err)
	}
	raw, merr := wirejson.Append(nil, result)
	if merr != nil {
		return faultResponse(Errf(CodeInternal, "marshal result: %v", merr))
	}
	return &response{OK: true, Result: raw}
}

// runBatch executes the "batch" built-in: several operations for one
// service carried in a single signed envelope, dispatched strictly in
// order, with one response per item. Each item goes back through dispatch,
// so per-op request counts, fault counters, and latency histograms keep
// working; the batch op itself is metered like any other op by the outer
// dispatch. A per-item fault does not fail the envelope — the caller reads
// it from that item's response. Nested batches are rejected.
func (c *Container) runBatch(ctx context.Context, caller Caller, req *request) *response {
	var items batchItems
	fellBack, err := wirejson.Unmarshal(req.Params, &items)
	if fellBack {
		c.Telemetry().Counter(MetricDecodeFallbacks).Inc()
	}
	if err != nil {
		return faultResponse(Errf(CodeBadRequest, "bad batch params: %v", err))
	}
	if len(items) == 0 {
		return faultResponse(Errf(CodeBadRequest, "empty batch"))
	}
	if len(items) > maxBatchOps {
		return faultResponse(Errf(CodeBadRequest, "batch of %d exceeds %d ops", len(items), maxBatchOps))
	}
	results := make([]*response, len(items))
	for i := range items {
		if items[i].Op == "batch" {
			results[i] = faultResponse(Errf(CodeBadRequest, "nested batch"))
			continue
		}
		sub := &request{
			Service: req.Service,
			Op:      items[i].Op,
			Params:  items[i].Params,
			Sent:    req.Sent,
			Trace:   req.Trace,
		}
		results[i] = c.dispatch(ctx, caller, sub)
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendResponseListJSON((*buf)[:0], results)
	raw := make(json.RawMessage, len(*buf))
	copy(raw, *buf)
	return &response{OK: true, Result: raw}
}

func faultResponse(err error) *response {
	var oe *OpError
	if errors.As(err, &oe) {
		return &response{OK: false, Code: oe.Code, Error: oe.Message}
	}
	return &response{OK: false, Code: CodeInternal, Error: err.Error()}
}

// maxBodyBytes bounds one frame's payload, request or reply.
const maxBodyBytes = 16 << 20

// openSigned decodes body as a signed envelope and verifies it. A body that
// does not decode fails with gsi.ErrBadEnvelope.
func openSigned(trust *gsi.TrustStore, body []byte, now time.Time) ([]byte, string, gsi.VerifyInfo, error) {
	var env gsi.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, "", gsi.VerifyInfo{}, fmt.Errorf("%w: %v", gsi.ErrBadEnvelope, err)
	}
	return trust.OpenInfo(&env, now)
}

// handle verifies one request envelope, dispatches it and appends the reply
// envelope to dst: a MAC'd envelope under a security context the container
// holds, or a signed envelope — which may offer a handshake, answered in the
// signed reply. The status is 200 for an envelope; any other status means
// what was appended is the error text of a request that was not an envelope
// or a reply that could not be signed.
func (c *Container) handle(ctx context.Context, dst, body []byte) ([]byte, int) {
	tel := c.Telemetry()
	// The envelope is verified from its bytes and its payload decoded into a
	// pooled buffer. The request decoded from it — params included — aliases
	// that buffer, which goes back to the pool when this call returns; the
	// response is encoded from fresh memory before then.
	//
	// Verification runs before the payload — and thus the caller's
	// traceparent — is readable, so its extent is measured here and
	// recorded as a retroactive child span once the server span exists.
	payloadBuf := getBuf()
	defer putBuf(payloadBuf)
	now := c.env.Now()
	verifyStart := time.Now()
	mode, authenticated := "mac", metricAuthMAC
	var (
		identity string
		vinfo    gsi.VerifyInfo
	)
	payload, sc, seq, err := c.contexts.Open((*payloadBuf)[:0], body, now)
	if errors.Is(err, gsi.ErrNotSealed) {
		mode, authenticated = "signed", metricAuthSigned
		payload, identity, vinfo, err = openSigned(c.trust, body, now)
	} else if err == nil {
		identity = sc.Peer()
	}
	verifyEnd := time.Now()
	if errors.Is(err, gsi.ErrBadEnvelope) {
		return append(dst, "ogsi: bad envelope"...), http.StatusBadRequest
	}
	if err != nil && mode == "mac" {
		tel.Counter(metricContextRejected + refusalReason(err)).Inc()
		return c.appendReply(dst, nil, 0, faultResponse(Errf(CodeContextRefused, "security context refused: %v", err)))
	}
	if err != nil {
		tel.Counter("ogsi.auth.failed").Inc()
		return c.appendReply(dst, nil, 0, faultResponse(Errf(CodeDenied, "authentication failed: %v", err)))
	}
	tel.Counter(authenticated).Inc()
	*payloadBuf = payload
	// A MAC'd request is authorized like a signed one: a gridmap entry
	// revoked mid-context takes effect on the very next call.
	account, err := c.gridmap.Authorize(identity)
	if err != nil {
		tel.Counter("ogsi.auth.denied").Inc()
		return c.appendReply(dst, sc, seq, faultResponse(Errf(CodeDenied, "not authorized: %s", identity)))
	}
	var req request
	fellBack, err := wirejson.Unmarshal(payload, &req)
	if fellBack {
		tel.Counter(MetricDecodeFallbacks).Inc()
	}
	if err != nil {
		return c.appendReply(dst, sc, seq, faultResponse(Errf(CodeBadRequest, "bad request: %v", err)))
	}
	var accept string
	if req.Offer != "" && sc == nil {
		var created bool
		if accept, created, err = c.contexts.Accept(req.Offer, identity, vinfo, c.cred, now); err != nil {
			return c.appendReply(dst, nil, 0, faultResponse(Errf(CodeBadRequest, "handshake: %v", err)))
		}
		if created {
			tel.Counter(metricContextEstablished).Inc()
		}
	}
	var span *trace.Span
	if tr := c.Tracer(); tr != nil {
		if tp, perr := trace.ParseTraceparent(req.Trace); perr == nil {
			ctx = trace.ContextWithRemote(ctx, tp)
		}
		ctx, span = tr.Start(ctx, req.Service+"."+req.Op, trace.KindServer)
		span.SetAttr("caller", identity)
		tr.RecordSpan(span.Context(), "gsi.verify", trace.KindInternal, verifyStart, verifyEnd,
			trace.Attr{Key: "side", Value: "request"},
			trace.Attr{Key: "mode", Value: mode},
			trace.Attr{Key: "cached", Value: strconv.FormatBool(vinfo.CacheHit)})
	}
	resp := c.dispatch(ctx, Caller{Identity: identity, Account: account}, &req)
	resp.Accept = accept
	if span != nil {
		if !resp.OK {
			span.SetAttr("fault", resp.Code)
		}
		// Echo the server span inside the authenticated response so the
		// client can pair its span with this one.
		resp.Trace = span.Context().Traceparent()
	}
	dst, status := c.appendReply(dst, sc, seq, resp)
	span.End()
	return dst, status
}

// refusalReason names the metric label of a context refusal.
func refusalReason(err error) string {
	for _, r := range contextRefusals {
		if errors.Is(err, r.err) {
			return r.reason
		}
	}
	return "unknown"
}

// appendReply appends a response envelope to dst, encoding response and
// envelope in one pass through a pooled buffer: MAC'd under sc and bound to
// the request's sequence number when the request came under a context,
// signed otherwise.
func (c *Container) appendReply(dst []byte, sc *gsi.Context, seq uint64, resp *response) ([]byte, int) {
	rawBuf := getBuf()
	defer putBuf(rawBuf)
	*rawBuf = appendResponseJSON((*rawBuf)[:0], resp)
	if sc != nil {
		return sc.Seal(dst, *rawBuf, seq), http.StatusOK
	}
	env, err := gsi.AppendSignedEnvelope(dst, c.cred, *rawBuf)
	if err != nil {
		return append(dst, "ogsi: sign response"...), http.StatusInternalServerError
	}
	return env, http.StatusOK
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Stop. It
// returns the bound address. Beside /ogsi it serves, unsigned, the
// registry at /metrics and the tracer's spans at /trace: operational data
// for dashboards and mostctl, not control traffic. A background reaper
// sweeps soft-state lifetimes every second.
func (c *Container) Start(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/ogsi", c)
	mux.Handle("/metrics", telemetry.Handler(c.Telemetry()))
	mux.Handle("/trace", trace.Handler(c.Tracer().Recorder()))
	c.srv = runtime.NewHTTPServer(c.env, addr, mux)
	if err := c.srv.Start(context.Background()); err != nil {
		return "", fmt.Errorf("ogsi: %w", err)
	}
	c.stopReaper = make(chan struct{})
	go func() {
		c.mu.RLock()
		services := make([]*Service, 0, len(c.services))
		for _, s := range c.services {
			services = append(services, s)
		}
		c.mu.RUnlock()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, s := range services {
					s.Lifetimes.Sweep()
				}
			case <-c.stopReaper:
				return
			}
		}
	}()
	c.state.Store(contServing)
	return c.srv.Addr(), nil
}

// Healthy reports nil while the container is serving — the per-component
// signal the runtime supervisor aggregates into /healthz.
func (c *Container) Healthy() error {
	switch c.state.Load() {
	case contServing:
		return nil
	case contDraining:
		return fmt.Errorf("ogsi: container draining")
	case contStopped:
		return fmt.Errorf("ogsi: container stopped")
	default:
		return fmt.Errorf("ogsi: container not started")
	}
}

// Stop shuts the container down: it first deregisters from readiness
// (Healthy turns non-nil, so /healthz aggregation and any load balancer
// watching it stop routing here), then drains within ctx's deadline: no
// session opens, idle sessions close, parked long-polls end, and a frame
// mid-dispatch writes its reply before its session closes. When ctx ends
// first, the sessions left are cut and Stop returns ctx's error. Either way
// the dispatch context of every session has ended when Stop returns.
func (c *Container) Stop(ctx context.Context) error {
	c.state.CompareAndSwap(contServing, contDraining)
	c.reaperOnce.Do(func() {
		if c.stopReaper != nil {
			close(c.stopReaper)
		}
	})
	gone := c.drainSessions()
	c.cancelPoll()
	var err error
	if c.srv != nil {
		err = c.srv.Stop(ctx)
	}
	select {
	case <-gone:
	case <-ctx.Done():
		c.closeSessions()
		if err == nil {
			err = ctx.Err()
		}
	}
	c.cancelBase()
	c.state.Store(contStopped)
	return err
}
