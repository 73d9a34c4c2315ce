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
	tracer     *trace.Tracer
	pluginName string

	// execCtx is the base context of every detached execution; Stop's
	// deadline path cancels it to reclaim executions that outlive the
	// drain budget.
	execCtx    context.Context
	execCancel context.CancelFunc

	mu       sync.Mutex
	txs      map[string]*transaction
	lastPos  map[string][]float64
	stats    Stats
	draining bool
	stopped  bool
	inflight int           // executions currently running
	idle     chan struct{} // non-nil while Stop waits for inflight to hit 0
}

type transaction struct {
	rec     *Record
	decided chan struct{} // closed when the propose decision (accept/reject) lands
	done    chan struct{} // closed when execution reaches a terminal state
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
	s.execCtx, s.execCancel = context.WithCancel(context.Background())
	// Pre-register every outcome series at zero: a freshly started daemon's
	// /metrics must show ntcp.server.proposed = 0, not omit the series —
	// scrapers and the obs aggregator cannot tell a missing counter from a
	// site that never wired telemetry.
	for _, name := range []string{cProposed, cAccepted, cRejected,
		cExecuted, cFailed, cCancelled, cDeduped, ogsi.MetricDecodeFallbacks} {
		s.tel.Counter(name)
	}
	s.tel.Histogram("ntcp.server.validate.seconds")
	s.tel.Histogram("ntcp.server.plugin.execute.seconds")
	s.svc = ogsi.NewService(opts.ServiceName)
	s.svc.SDEs.SetClock(opts.Clock)
	s.svc.Lifetimes.SetClock(opts.Clock)
	s.registerOps()
	return s
}

// Service exposes the underlying OGSI service for container registration.
func (s *Server) Service() *ogsi.Service { return s.svc }

// Telemetry exposes the server's metrics registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func txSDE(name string) string { return "tx:" + name }

// publish exposes a transaction snapshot as SDEs. rec MUST be a private
// clone taken while s.mu was held, and nobody may touch it afterwards:
// publish runs outside the lock, a live *Record can be mutated concurrently
// by runExecution (the data race the -race suite caught), and the SDE store
// keeps rec itself until a reader asks for its encoding.
func (s *Server) publish(rec *Record) {
	_ = s.svc.SDEs.Set(txSDE(rec.Name), rec)
	_ = s.svc.SDEs.Set("last-transaction", rec.Name)
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	_ = s.svc.SDEs.Set("stats", st)
}

// ntcp.server.* counter names, mirrored from the Stats struct into the
// telemetry registry so remote /metrics shows the same outcomes.
const (
	cProposed  = "ntcp.server.proposed"
	cAccepted  = "ntcp.server.accepted"
	cRejected  = "ntcp.server.rejected"
	cExecuted  = "ntcp.server.executed"
	cFailed    = "ntcp.server.failed"
	cCancelled = "ntcp.server.cancelled"
	cDeduped   = "ntcp.server.deduped_replays"
)

// Propose handles a proposal with at-most-once semantics: a name already in
// the transaction table is answered from the table, whatever its state.
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
		s.stats.DedupedReplay++
		rec := tx.rec.clone()
		s.mu.Unlock()
		s.tel.Counter(cDeduped).Inc()
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
	now := s.opts.Clock()
	rec := &Record{
		Name:       p.Name,
		State:      StateProposed,
		Actions:    append([]Action(nil), p.Actions...),
		Timeout:    p.ExecuteTimeoutSeconds,
		Client:     client,
		Timestamps: map[TxState]time.Time{StateProposed: now},
	}
	tx := &transaction{rec: rec, decided: make(chan struct{})}
	s.txs[p.Name] = tx
	s.stats.Proposed++
	lastSnapshot := make(map[string][]float64, len(s.lastPos))
	for k, v := range s.lastPos {
		lastSnapshot[k] = v
	}
	s.mu.Unlock()
	s.tel.Counter(cProposed).Inc()

	// Validation happens outside the lock: policy first, then plugin.
	valStart := time.Now()
	verdict := s.policy.Check(client, p.Actions, lastSnapshot)
	if verdict == nil {
		verdict = s.plugin.Validate(ctx, p.Actions)
	}
	s.tel.Histogram("ntcp.server.validate.seconds").ObserveDuration(time.Since(valStart))
	if span != nil {
		attrs := map[string]string{"tx": p.Name}
		if verdict != nil {
			attrs["rejected"] = verdict.Error()
		}
		s.tracer.RecordSpan(span.Context(), "ntcp.validate", trace.KindInternal,
			valStart, time.Now(), attrs)
		if verdict != nil {
			span.SetAttr("rejected", "true")
		}
	}

	s.mu.Lock()
	if verdict != nil {
		rec.State = StateRejected
		rec.Error = verdict.Error()
		rec.Timestamps[StateRejected] = s.opts.Clock()
		s.stats.Rejected++
	} else {
		rec.State = StateAccepted
		rec.Timestamps[StateAccepted] = s.opts.Clock()
		s.stats.Accepted++
	}
	// Wake any Execute that raced in mid-validation and is waiting for the
	// propose decision.
	close(tx.decided)
	out := rec.clone()
	s.mu.Unlock()
	if verdict != nil {
		s.tel.Counter(cRejected).Inc()
		s.tel.Event("ntcp", "tx-rejected", map[string]any{"name": p.Name, "error": out.Error})
	} else {
		s.tel.Counter(cAccepted).Inc()
	}

	ttl := s.opts.DefaultTTL
	if p.TTLSeconds > 0 {
		ttl = time.Duration(p.TTLSeconds * float64(time.Second))
	}
	s.svc.Lifetimes.Register(p.Name, ttl, func() { s.expire(p.Name) })
	// SDEs.Set encodes its value only when somebody reads it, so the store
	// gets a clone of its own: out is the caller's to change.
	s.publish(out.clone())
	return out, nil
}

// expire removes a transaction whose soft-state lifetime lapsed.
func (s *Server) expire(name string) {
	s.mu.Lock()
	tx, ok := s.txs[name]
	if ok && tx.rec.State == StateExecuting {
		// Never reap a transaction mid-execution; it re-registers on
		// completion via publish and will be swept on a later pass.
		s.mu.Unlock()
		s.svc.Lifetimes.Register(name, s.opts.DefaultTTL, func() { s.expire(name) })
		return
	}
	delete(s.txs, name)
	s.mu.Unlock()
	s.svc.SDEs.Delete(txSDE(name))
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
		rec := tx.rec
		if rec.Client != client {
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeDenied, "transaction %q belongs to %q", name, rec.Client)
		}
		switch rec.State {
		case StateExecuted, StateFailed:
			s.stats.DedupedReplay++
			out := rec.clone()
			s.mu.Unlock()
			s.tel.Counter(cDeduped).Inc()
			return out, nil
		case StateRejected, StateCancelled:
			st := rec.State
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeConflict, "transaction %q is %s", name, st)
		case StateProposed:
			// Mid-validation: wait for Propose to decide, then re-evaluate.
			decided := tx.decided
			s.mu.Unlock()
			if decided == nil {
				// No deciding goroutine to wait on (should not happen):
				// transient, so the client retry loop takes another look.
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q awaiting propose decision", name)
			}
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
			s.tel.Counter(cDeduped).Inc()
			select {
			case <-done:
				s.mu.Lock()
				out := rec.clone()
				s.mu.Unlock()
				return out, nil
			case <-ctx.Done():
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q still executing", name)
			}
		case StateAccepted:
			rec.State = StateExecuting
			rec.Timestamps[StateExecuting] = s.opts.Clock()
			tx.done = make(chan struct{})
			done := tx.done
			actions := append([]Action(nil), rec.Actions...)
			timeout := s.opts.DefaultExecuteTimeout
			if rec.Timeout > 0 {
				timeout = time.Duration(rec.Timeout * float64(time.Second))
			}
			s.inflight++
			pub := rec.clone()
			s.mu.Unlock()
			// Publish the executing snapshot before the execution goroutine
			// can finish: SDE updates stay ordered and never touch the live
			// record outside the lock.
			s.publish(pub)

			// Execution deliberately detaches from the request context: once
			// an action starts against a physical rig it completes (or fails)
			// regardless of whether the requesting connection survives, and a
			// retry collects the cached outcome — the at-most-once contract.
			// The initiating span's context rides along so the plugin run is
			// recorded as its child even after the request returns.
			go s.runExecution(name, actions, timeout, done, span.Context())

			select {
			case <-done:
				s.mu.Lock()
				out := rec.clone()
				s.mu.Unlock()
				return out, nil
			case <-ctx.Done():
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q still executing", name)
			}
		default:
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeInternal, "transaction %q in unexpected state %s", name, rec.State)
		}
	}
}

func (s *Server) runExecution(name string, actions []Action, timeout time.Duration, done chan struct{}, parent trace.SpanContext) {
	defer close(done)
	defer s.execDone()
	// Derived from the server's base context (not the request's): the
	// at-most-once contract means an action outlives its connection, but
	// not the server's drain deadline — Stop cancels execCtx when the
	// drain budget runs out.
	execCtx, cancel := context.WithTimeout(s.execCtx, timeout)
	defer cancel()
	start := time.Now()
	results, err := s.plugin.Execute(execCtx, actions)
	s.tel.Histogram("ntcp.server.plugin.execute.seconds").ObserveDuration(time.Since(start))
	if s.tracer != nil {
		attrs := map[string]string{"tx": name, "plugin": s.pluginName}
		if err != nil {
			attrs["error"] = err.Error()
		}
		s.tracer.RecordSpan(parent, "ntcp.plugin.execute", trace.KindInternal, start, time.Now(), attrs)
	}

	s.mu.Lock()
	tx, ok := s.txs[name]
	if !ok {
		s.mu.Unlock()
		return
	}
	rec := tx.rec
	now := s.opts.Clock()
	if err != nil {
		rec.State = StateFailed
		rec.Error = err.Error()
		rec.Timestamps[StateFailed] = now
		s.stats.Failed++
	} else {
		rec.State = StateExecuted
		rec.Results = results
		rec.Timestamps[StateExecuted] = now
		s.stats.Executed++
		for _, r := range results {
			s.lastPos[r.ControlPoint] = append([]float64(nil), r.Displacements...)
		}
	}
	pub := rec.clone()
	s.mu.Unlock()
	if err != nil {
		s.tel.Counter(cFailed).Inc()
		s.tel.Event("ntcp", "tx-failed", map[string]any{"name": name, "error": err.Error()})
	} else {
		s.tel.Counter(cExecuted).Inc()
	}
	s.publish(pub)
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
		rec := tx.rec
		if rec.Client != client {
			s.mu.Unlock()
			return nil, ogsi.Errf(ogsi.CodeDenied, "transaction %q belongs to %q", name, rec.Client)
		}
		if rec.State == StateProposed {
			decided := tx.decided
			s.mu.Unlock()
			if decided == nil {
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q awaiting propose decision", name)
			}
			select {
			case <-decided:
				continue
			case <-ctx.Done():
				return nil, ogsi.Errf(ogsi.CodeUnavailable, "transaction %q awaiting propose decision", name)
			}
		}
		return s.cancelDecided(tx, name)
	}
}

// cancelDecided finishes Cancel once the transaction is past StateProposed.
// Called with s.mu held; releases it.
func (s *Server) cancelDecided(tx *transaction, name string) (*Record, error) {
	rec := tx.rec
	switch rec.State {
	case StateAccepted:
		rec.State = StateCancelled
		rec.Timestamps[StateCancelled] = s.opts.Clock()
		s.stats.Cancelled++
		out := rec.clone()
		s.mu.Unlock()
		s.tel.Counter(cCancelled).Inc()
		s.tel.Event("ntcp", "tx-cancelled", map[string]any{"name": name})
		s.publish(out.clone())
		return out, nil
	case StateCancelled, StateRejected:
		out := rec.clone()
		s.mu.Unlock()
		return out, nil
	default:
		st := rec.State
		s.mu.Unlock()
		return nil, ogsi.Errf(ogsi.CodeConflict, "cannot cancel transaction %q in state %s", name, st)
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
	return tx.rec.clone(), nil
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
	s.svc.RegisterOp("get", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
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
