package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson"
)

// ServerOptions tunes an NTCP server.
type ServerOptions struct {
	// ServiceName is the OGSI service name; defaults to "ntcp".
	ServiceName string
	// DefaultExecuteTimeout bounds plugin execution when the proposal does
	// not specify one. Defaults to 30 s.
	DefaultExecuteTimeout time.Duration
	// DefaultTTL is the soft-state lifetime of a transaction record.
	// Defaults to 1 h.
	DefaultTTL time.Duration
	// Clock overrides the time source (tests).
	Clock func() time.Time
	// Telemetry is the registry the server records outcome counters,
	// plugin-latency histograms, and lifecycle events into. Nil allocates a
	// private registry (share one with the hosting container so /metrics
	// shows server and transport metrics together).
	Telemetry *telemetry.Registry
	// Tracer, when set, records spans for propose/validate/execute/cancel
	// (with the transaction name and plugin type attached), parented under
	// whatever span the request context carries — normally the container's
	// server span. Nil disables tracing.
	Tracer *trace.Tracer
}

func (o *ServerOptions) fill() {
	if o.ServiceName == "" {
		o.ServiceName = "ntcp"
	}
	if o.DefaultExecuteTimeout <= 0 {
		o.DefaultExecuteTimeout = 30 * time.Second
	}
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = time.Hour
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Stats counts server activity; published as the "stats" SDE.
type Stats struct {
	Proposed      int `json:"proposed"`
	Accepted      int `json:"accepted"`
	Rejected      int `json:"rejected"`
	Executed      int `json:"executed"`
	Failed        int `json:"failed"`
	Cancelled     int `json:"cancelled"`
	DedupedReplay int `json:"deduped_replays"` // retries answered from the transaction table
}

// Server is the core NTCP server of Fig. 2: generic transaction management
// in front of a site-supplied control plugin.
type Server struct {
	opts       ServerOptions
	plugin     Plugin
	policy     *SitePolicy
	svc        *ogsi.Service
	tel        *telemetry.Registry
	m          serverMetrics
	tracer     *trace.Tracer
	pluginName string
	expireFn   func(name string) // s.expire, made once: the lifetime index keeps it per entry

	// execCtx is the base context of every detached execution; Stop's
	// deadline path cancels it to reclaim executions that outlive the
	// drain budget.
	execCtx    context.Context
	execCancel context.CancelFunc

	mu       sync.Mutex
	txs      map[string]*transaction
	lastPos  map[string][]float64
	stats    Stats
	pub      published
	draining bool
	stopped  bool
	inflight int           // executions currently running
	idle     chan struct{} // non-nil while Stop waits for inflight to hit 0
}

// transaction is the table's entry, and the only copy of a transaction the
// server keeps: the tx:<name> service data element is read from it and its
// lifetime is an entry in the service's deadline index.
type transaction struct {
	rec Record
	// sde is the element's name, "tx:" + rec.Name; rec.Name is its tail, so
	// the name is stored once.
	sde string
	// version counts the state changes published as the element; 0 until
	// the propose decision, while the element does not exist yet. The time
	// of the last one is rec.Timestamps' entry for rec.State.
	version int
	decided chan struct{} // closed when the propose decision lands, then dropped
	done    chan struct{} // closed when execution reaches a terminal state, then dropped
}

// published is what the last-transaction and stats elements read: the
// transaction of the last published state change, the counters as they
// stood then, and the version and time both elements carry.
type published struct {
	name    string
	stats   Stats
	version int
	at      time.Time
}

// serverMetrics are the server's series, resolved once.
type serverMetrics struct {
	proposed, accepted, rejected, executed, failed, cancelled, deduped, expired *telemetry.Counter
	transactions                                                                *telemetry.Gauge
	validate, execute                                                           *telemetry.Histogram
}

// NewServer builds an NTCP server over the given plugin and site policy
// (policy may be nil for an unrestricted site).
func NewServer(plugin Plugin, policy *SitePolicy, opts ServerOptions) *Server {
	opts.fill()
	s := &Server{
		opts:       opts,
		plugin:     plugin,
		policy:     policy,
		tel:        telemetry.OrNew(opts.Telemetry),
		tracer:     opts.Tracer,
		pluginName: strings.TrimPrefix(fmt.Sprintf("%T", plugin), "*"),
		txs:        make(map[string]*transaction),
		lastPos:    make(map[string][]float64),
	}
	s.expireFn = s.expire
	s.execCtx, s.execCancel = context.WithCancel(context.Background())
	// Every series is registered at construction, so a freshly started
	// daemon's /metrics shows ntcp.server.proposed = 0 rather than omitting
	// it — scrapers and the obs aggregator cannot tell a missing counter
	// from a site that never wired telemetry.
	s.m = serverMetrics{
		proposed:     s.tel.Counter(cProposed),
		accepted:     s.tel.Counter(cAccepted),
		rejected:     s.tel.Counter(cRejected),
		executed:     s.tel.Counter(cExecuted),
		failed:       s.tel.Counter(cFailed),
		cancelled:    s.tel.Counter(cCancelled),
		deduped:      s.tel.Counter(cDeduped),
		expired:      s.tel.Counter(cExpired),
		transactions: s.tel.Gauge(gTransactions),
		validate:     s.tel.Histogram("ntcp.server.validate.seconds"),
		execute:      s.tel.Histogram("ntcp.server.plugin.execute.seconds"),
	}
	s.m.transactions.Set(0) // a server restarted on a shared registry starts empty
	s.tel.Counter(ogsi.MetricDecodeFallbacks)
	s.svc = ogsi.NewService(opts.ServiceName)
	s.svc.SDEs.SetClock(opts.Clock)
	s.svc.SDEs.AddSource((*sdeSource)(s))
	s.svc.Lifetimes.SetClock(opts.Clock)
	s.registerOps()
	return s
}

// Service exposes the underlying OGSI service for container registration.
func (s *Server) Service() *ogsi.Service { return s.svc }

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ntcp.server.* series names. The counters mirror the Stats struct into the
// telemetry registry so remote /metrics shows the same outcomes.
const (
	cProposed     = "ntcp.server.proposed"
	cAccepted     = "ntcp.server.accepted"
	cRejected     = "ntcp.server.rejected"
	cExecuted     = "ntcp.server.executed"
	cFailed       = "ntcp.server.failed"
	cCancelled    = "ntcp.server.cancelled"
	cDeduped      = "ntcp.server.deduped_replays"
	cExpired      = "ntcp.server.expired"      // records reaped when their lifetime lapsed
	gTransactions = "ntcp.server.transactions" // records in the table
)

// The service data elements the server publishes: tx:<name> per
// transaction, and two for the server as a whole.
const (
	txPrefix = "tx:"
	sdeLast  = "last-transaction"
	sdeStats = "stats"
)

// advance moves tx to state st now and makes it the published state: the
// element's version moves on, and last-transaction and stats follow it.
// Counters must already include the change. Called with s.mu held; the
// caller then calls s.announce(tx) once the lock is released.
func (s *Server) advance(tx *transaction, st TxState) {
	now := s.opts.Clock()
	tx.rec.State = st
	tx.rec.Timestamps.Set(st, now)
	tx.version++
	s.pub = published{name: tx.rec.Name, stats: s.stats, version: s.pub.version + 1, at: now}
}

// announce tells the service data store, and through it any watcher, that
// tx's element, last-transaction and stats have new versions.
func (s *Server) announce(tx *transaction) {
	s.svc.SDEs.Changed(tx.sde, sdeLast, sdeStats)
}

// snapshot copies tx's record for a caller. Called with s.mu held.
func snapshot(tx *transaction) *Record {
	rec := tx.rec
	return &rec
}

// denied is the fault for a client naming a transaction another client owns.
func denied(rec *Record) error {
	return ogsi.Errf(ogsi.CodeDenied, "transaction %q belongs to %q", rec.Name, rec.Client)
}

// Propose handles a proposal with at-most-once semantics: a name already in
// the transaction table is answered from the table, whatever its state — to
// the client that proposed it. Another client naming it is denied, as
// Execute and Cancel deny it, and gets none of the record.
func (s *Server) Propose(ctx context.Context, client string, p *Proposal) (*Record, error) {
	if err := p.Validate(); err != nil {
		return nil, ogsi.Errf(ogsi.CodeBadRequest, "%v", err)
	}
	ctx, span := s.tracer.Start(ctx, "ntcp.propose", trace.KindInternal)
	if span != nil {
		span.SetAttr("tx", p.Name)
		span.SetAttr("plugin", s.pluginName)
		defer span.End()
	}
	s.mu.Lock()
	if tx, ok := s.txs[p.Name]; ok {
		if tx.rec.Client != client {
			err := denied(&tx.rec)
			s.mu.Unlock()
			return nil, err
		}
		s.stats.DedupedReplay++
		rec := snapshot(tx)
		s.mu.Unlock()
		s.m.deduped.Inc()
		return rec, nil
	}
	if s.draining {
		// Graceful drain: new work is refused with the retryable code, so
		// a coordinator mid-step backs off and retries against the
		// restarted (or failed-over) site instead of treating the shutdown
		// as a terminal fault — the opposite of the connection reset that
		// ended the public MOST run.
		s.mu.Unlock()
		return nil, ogsi.Errf(ogsi.CodeUnavailable, "server draining, not accepting new transactions")
	}
	sde := txPrefix + p.Name
	tx := &transaction{
		rec: Record{
			Name:    sde[len(txPrefix):],
			State:   StateProposed,
			Actions: append([]Action(nil), p.Actions...),
			Timeout: p.ExecuteTimeoutSeconds,
			Client:  client,
		},
		sde:     sde,
		decided: make(chan struct{}),
	}
	tx.rec.Timestamps.Set(StateProposed, s.opts.Clock())
	s.txs[tx.rec.Name] = tx
	s.m.transactions.Set(float64(len(s.txs)))
	s.stats.Proposed++
	// The policy screen reads the positions the last executions left, so it
	// runs under the lock; the plugin's validation runs outside it.
	valStart := time.Now()
	verdict := s.policy.Check(client, p.Actions, s.lastPos)
	s.mu.Unlock()
	s.m.proposed.Inc()

	if verdict == nil {
		verdict = s.plugin.Validate(ctx, p.Actions)
	}
	s.m.validate.ObserveDuration(time.Since(valStart))
	if span != nil {
		attrs := []trace.Attr{{Key: "tx", Value: p.Name}}
		if verdict != nil {
			attrs = append(attrs, trace.Attr{Key: "rejected", Value: verdict.Error()})
			span.SetAttr("rejected", "true")
		}
		s.tracer.RecordSpan(span.Context(), "ntcp.validate", trace.KindInternal,
			valStart, time.Now(), attrs...)
	}

	s.mu.Lock()
	if verdict != nil {
		tx.rec.Error = verdict.Error()
		s.stats.Rejected++
		s.advance(tx, StateRejected)
	} else {
		s.stats.Accepted++
		s.advance(tx, StateAccepted)
	}
	// Wake any Execute that raced in mid-validation and is waiting for the
	// propose decision.
	close(tx.decided)
	tx.decided = nil
	out := snapshot(tx)
	s.mu.Unlock()
	if verdict != nil {
		s.m.rejected.Inc()
		s.tel.Event("ntcp", "tx-rejected", map[string]any{"name": p.Name, "error": out.Error})
	} else {
		s.m.accepted.Inc()
	}

	ttl := s.opts.DefaultTTL
	if p.TTLSeconds > 0 {
		ttl = time.Duration(p.TTLSeconds * float64(time.Second))
	}
	s.svc.Lifetimes.Register(tx.rec.Name, ttl, s.expireFn)
	s.announce(tx)
	return out, nil
}

// expire removes a transaction whose soft-state lifetime lapsed — unless it
// is executing, which is never reaped: it gets another DefaultTTL.
func (s *Server) expire(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, ok := s.txs[name]
	if !ok {
		return
	}
	if tx.rec.State == StateExecuting {
		s.svc.Lifetimes.Register(tx.rec.Name, s.opts.DefaultTTL, s.expireFn)
		return
	}
	delete(s.txs, name)
	s.m.transactions.Set(float64(len(s.txs)))
	s.m.expired.Inc()
}

// Execute runs an accepted transaction at most once. Concurrent or retried
// Execute calls for the same name wait for (or pick up) the single
// execution's outcome. An Execute that lands mid-validation — a retried
// request racing the original Propose, or a fast-path replay — waits for the
// propose decision instead of faulting: before this fix it fell through to a
// non-retryable CodeInternal, turning a benign race into a terminal error
// (the class of transient-failure mishandling that ended the public MOST
// run).
func (s *Server) Execute(ctx context.Context, client, name string) (*Record, error) {
	ctx, span := s.tracer.Start(ctx, "ntcp.execute", trace.KindInternal)
	if span != nil {
		span.SetAttr("tx", name)
		span.SetAttr("plugin", s.pluginName)
		defer span.End()
	}
	for {
		s.mu.Lock()
		tx, ok := s.txs[name]
		if !ok {
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeNotFound, "no transaction %q", name)
		}
		if tx.rec.Client != client {
			err := denied(&tx.rec)
			s.mu.Unlock()
			return nil, err
		}
		switch st := tx.rec.State; st {
		case StateExecuted, StateFailed:
			s.stats.DedupedReplay++
			out := snapshot(tx)
			s.mu.Unlock()
			s.m.deduped.Inc()
			return out, nil
		case StateRejected, StateCancelled:
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeConflict, "transaction %q is %s", name, st)
		case StateProposed:
			// Mid-validation: wait for Propose to decide, then re-evaluate.
			decided := tx.decided
			s.mu.Unlock()
			select {
			case <-decided:
				continue
			case <-ctx.Done():
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q awaiting propose decision", name)
			}
		case StateExecuting:
			done := tx.done
			s.stats.DedupedReplay++
			s.mu.Unlock()
			s.m.deduped.Inc()
			return s.await(ctx, tx, done)
		case StateAccepted:
			s.advance(tx, StateExecuting)
			tx.done = make(chan struct{})
			done := tx.done
			timeout := s.opts.DefaultExecuteTimeout
			if tx.rec.Timeout > 0 {
				timeout = time.Duration(tx.rec.Timeout * float64(time.Second))
			}
			s.inflight++
			s.mu.Unlock()
			// Announce the executing state before the execution goroutine
			// can finish, so watchers see the changes in order.
			s.announce(tx)

			// Execution deliberately detaches from the request context: once
			// an action starts against a physical rig it completes (or fails)
			// regardless of whether the requesting connection survives, and a
			// retry collects the cached outcome — the at-most-once contract.
			// The initiating span's context rides along so the plugin run is
			// recorded as its child even after the request returns.
			go s.runExecution(tx, timeout, done, span.Context())
			return s.await(ctx, tx, done)
		default:
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeInternal, "transaction %q in unexpected state %s", name, st)
		}
	}
}

// await returns tx's record once its execution, signalled by done, is over.
func (s *Server) await(ctx context.Context, tx *transaction, done chan struct{}) (*Record, error) {
	select {
	case <-done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return snapshot(tx), nil
	case <-ctx.Done():
		return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q still executing", tx.rec.Name)
	}
}

func (s *Server) runExecution(tx *transaction, timeout time.Duration, done chan struct{}, parent trace.SpanContext) {
	defer close(done)
	defer s.execDone()
	// Derived from the server's base context (not the request's): the
	// at-most-once contract means an action outlives its connection, but
	// not the server's drain deadline — Stop cancels execCtx when the
	// drain budget runs out. The actions are the record's own: nothing
	// changes them once proposed.
	execCtx, cancel := context.WithTimeout(s.execCtx, timeout)
	defer cancel()
	start := time.Now()
	results, err := s.plugin.Execute(execCtx, tx.rec.Actions)
	s.m.execute.ObserveDuration(time.Since(start))
	if s.tracer != nil {
		attrs := []trace.Attr{{Key: "tx", Value: tx.rec.Name}, {Key: "plugin", Value: s.pluginName}}
		if err != nil {
			attrs = append(attrs, trace.Attr{Key: "error", Value: err.Error()})
		}
		s.tracer.RecordSpan(parent, "ntcp.plugin.execute", trace.KindInternal, start, time.Now(), attrs...)
	}

	s.mu.Lock()
	if err != nil {
		tx.rec.Error = err.Error()
		s.stats.Failed++
		s.advance(tx, StateFailed)
	} else {
		tx.rec.Results = results
		s.stats.Executed++
		s.advance(tx, StateExecuted)
		for _, r := range results {
			s.lastPos[r.ControlPoint] = append([]float64(nil), r.Displacements...)
		}
	}
	tx.done = nil
	s.mu.Unlock()
	if err != nil {
		s.m.failed.Inc()
		s.tel.Event("ntcp", "tx-failed", map[string]any{"name": tx.rec.Name, "error": err.Error()})
	} else {
		s.m.executed.Inc()
	}
	s.announce(tx)
}

// Cancel aborts an accepted transaction before execution. Cancelling an
// already-cancelled or rejected transaction is an idempotent no-op;
// cancelling one that is executing or executed is a conflict (physical
// actions cannot be undone — paper §2.1). A cancel racing the original
// Propose mid-validation waits for the propose decision, like Execute.
func (s *Server) Cancel(ctx context.Context, client, name string) (*Record, error) {
	ctx, span := s.tracer.Start(ctx, "ntcp.cancel", trace.KindInternal)
	if span != nil {
		span.SetAttr("tx", name)
		defer span.End()
	}
	for {
		s.mu.Lock()
		tx, ok := s.txs[name]
		if !ok {
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeNotFound, "no transaction %q", name)
		}
		if tx.rec.Client != client {
			err := denied(&tx.rec)
			s.mu.Unlock()
			return nil, err
		}
		switch st := tx.rec.State; st {
		case StateProposed:
			decided := tx.decided
			s.mu.Unlock()
			select {
			case <-decided:
				continue
			case <-ctx.Done():
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q awaiting propose decision", name)
			}
		case StateAccepted:
			s.stats.Cancelled++
			s.advance(tx, StateCancelled)
			out := snapshot(tx)
			s.mu.Unlock()
			s.m.cancelled.Inc()
			s.tel.Event("ntcp", "tx-cancelled", map[string]any{"name": name})
			s.announce(tx)
			return out, nil
		case StateCancelled, StateRejected:
			out := snapshot(tx)
			s.mu.Unlock()
			return out, nil
		default:
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeConflict, "cannot cancel transaction %q in state %s", name, st)
		}
	}
}

// Get returns a transaction record.
func (s *Server) Get(name string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, ok := s.txs[name]
	if !ok {
		return nil, ogsi.Errf(ogsi.CodeNotFound, "no transaction %q", name)
	}
	return snapshot(tx), nil
}

// getFor is the get op: Get, for the client that owns the transaction.
func (s *Server) getFor(client, name string) (*Record, error) {
	rec, err := s.Get(name)
	if err == nil && rec.Client != client {
		return nil, denied(rec)
	}
	return rec, err
}

// sdeSource answers for the server's service data from its table: tx:<name>
// for every transaction past its propose decision, and last-transaction and
// stats once anything was published. Values are encoded here, when read.
type sdeSource Server

// SDE implements ogsi.SDESource.
func (src *sdeSource) SDE(name string) (ogsi.SDE, bool) {
	s := (*Server)(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == sdeLast || name == sdeStats {
		if s.pub.version == 0 {
			return ogsi.SDE{}, false
		}
		var v []byte
		if name == sdeStats {
			v, _ = s.pub.stats.AppendJSON(nil)
		} else {
			v = wirejson.AppendString(nil, s.pub.name)
		}
		return ogsi.SDE{Name: name, Value: v, Version: s.pub.version, UpdatedAt: s.pub.at}, true
	}
	key, ok := strings.CutPrefix(name, txPrefix)
	if !ok {
		return ogsi.SDE{}, false
	}
	tx := s.txs[key]
	if tx == nil || tx.version == 0 {
		return ogsi.SDE{}, false
	}
	v, err := tx.rec.AppendJSON(nil)
	if err != nil {
		return ogsi.SDE{}, false
	}
	at, _ := tx.rec.Timestamps.Get(tx.rec.State)
	return ogsi.SDE{Name: name, Value: v, Version: tx.version, UpdatedAt: at}, true
}

// SDENames implements ogsi.SDESource.
func (src *sdeSource) SDENames(dst []string) []string {
	s := (*Server)(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pub.version > 0 {
		dst = append(dst, sdeLast, sdeStats)
	}
	for _, tx := range s.txs {
		if tx.version > 0 {
			dst = append(dst, tx.sde)
		}
	}
	return dst
}

// wire types for the service operations.
type nameParams struct {
	Name string `json:"name"`
}

// decodeParams decodes an op's params through the shape's strict decoder,
// counting the ones that needed encoding/json after all.
func (s *Server) decodeParams(params json.RawMessage, v any) error {
	fellBack, err := wirejson.Unmarshal(params, v)
	if fellBack {
		s.tel.Counter(ogsi.MetricDecodeFallbacks).Inc()
	}
	return err
}

func (s *Server) registerOps() {
	s.svc.RegisterOp("propose", func(ctx context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p Proposal
		if err := s.decodeParams(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad proposal: %v", err)
		}
		return s.Propose(ctx, caller.Identity, &p)
	})
	s.svc.RegisterOp("execute", func(ctx context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p nameParams
		if err := s.decodeParams(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad execute params: %v", err)
		}
		return s.Execute(ctx, caller.Identity, p.Name)
	})
	s.svc.RegisterOp("cancel", func(ctx context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p nameParams
		if err := s.decodeParams(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad cancel params: %v", err)
		}
		return s.Cancel(ctx, caller.Identity, p.Name)
	})
	s.registerFastPathOp()
	s.svc.RegisterOp("get", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p nameParams
		if err := s.decodeParams(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad get params: %v", err)
		}
		return s.Get(p.Name)
	})
}

// execDone retires one in-flight execution and wakes a waiting Stop when
// the last one finishes.
func (s *Server) execDone() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Start satisfies the runtime component contract. The server itself has
// nothing to bring up — it serves through its hosting container — but the
// explicit lifecycle lets a supervisor order it between the container and
// the control backend.
func (s *Server) Start(context.Context) error { return nil }

// Healthy reports nil while the server accepts new transactions.
func (s *Server) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("ntcp server %q stopped", s.opts.ServiceName)
	}
	if s.draining {
		return fmt.Errorf("ntcp server %q draining (%d executions in flight)",
			s.opts.ServiceName, s.inflight)
	}
	return nil
}

// drainCancelGrace bounds how long Stop waits, after cancelling the base
// execution context, for overdue executions to observe the cancellation
// and journal their failure records.
const drainCancelGrace = 2 * time.Second

// Stop drains the server: from this moment new Propose calls are refused
// with the retryable CodeUnavailable (replays of known transactions are
// still answered from the table), in-flight executions get until ctx's
// deadline to finish, and any that overrun are cancelled through the
// plugin context and journalled — their names land in a "drain-cancelled"
// telemetry event and their records finish StateFailed, so a post-mortem
// can tell exactly which actuator moves were cut short. Stop must run
// while the hosting container is still serving, so clients see the NTCP
// fault code rather than a connection reset; a supervisor gets this
// ordering for free by registering the server after the container.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	n := s.inflight
	var idle chan struct{}
	if n > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle = s.idle
	}
	s.mu.Unlock()

	s.tel.Event("ntcp", "drain-begin", map[string]any{"inflight": n})
	if n == 0 {
		s.finishStop(nil)
		return nil
	}
	select {
	case <-idle:
		s.finishStop(nil)
		return nil
	case <-ctx.Done():
	}

	// Drain deadline exceeded: cancel the survivors and journal them.
	s.mu.Lock()
	var survivors []string
	for name, tx := range s.txs {
		if tx.rec.State == StateExecuting {
			survivors = append(survivors, name)
		}
	}
	s.mu.Unlock()
	sort.Strings(survivors)
	s.tel.Event("ntcp", "drain-cancelled", map[string]any{
		"transactions": survivors,
	})
	s.execCancel()
	select {
	case <-idle:
		s.finishStop(survivors)
		return nil
	case <-time.After(drainCancelGrace):
		s.finishStop(survivors)
		return fmt.Errorf("ntcp server %q: %d executions ignored drain cancellation",
			s.opts.ServiceName, len(survivors))
	}
}

// finishStop marks the server stopped and journals the drain outcome.
func (s *Server) finishStop(cancelled []string) {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.tel.Event("ntcp", "drain-complete", map[string]any{
		"cancelled": len(cancelled),
	})
}

// String describes the server briefly.
func (s *Server) String() string {
	return fmt.Sprintf("ntcp server %q", s.opts.ServiceName)
}
