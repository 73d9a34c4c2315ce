// Package runtime is the shared service-lifecycle layer every daemon and
// harness in this repository runs on. The paper's central operational
// lesson (§3.4) is that a multi-site hybrid experiment lives or dies on
// service robustness — the public MOST run ended at step 1493 because one
// endpoint could not ride out a network event. This package is the
// reproduction's answer on the lifecycle side: components declare an
// explicit Start/Stop/Healthy contract, a Supervisor starts them in
// dependency order and drains them in reverse under per-component
// deadlines, SIGINT/SIGTERM translate into exactly one cancellation, and
// liveness/readiness are observable at /healthz and /readyz on the debug
// mux so an external orchestrator (or the CI shutdown smoke) can watch a
// process come up and drain.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Component is one supervised unit of a process: a listener, a server, a
// background feed, a rig daemon. Start must return once the component is
// usable (or failed); Stop must release everything Start acquired,
// honouring ctx as its drain deadline; Healthy reports nil while the
// component is able to do its job.
type Component interface {
	Start(ctx context.Context) error
	Stop(ctx context.Context) error
	Healthy() error
}

// Funcs adapts plain functions to the Component contract. Nil fields are
// no-ops (a nil HealthyFunc reports healthy), so already-running resources
// can join a supervisor with only their teardown declared.
type Funcs struct {
	StartFunc   func(ctx context.Context) error
	StopFunc    func(ctx context.Context) error
	HealthyFunc func() error
}

// Start runs StartFunc when set.
func (f Funcs) Start(ctx context.Context) error {
	if f.StartFunc == nil {
		return nil
	}
	return f.StartFunc(ctx)
}

// Stop runs StopFunc when set.
func (f Funcs) Stop(ctx context.Context) error {
	if f.StopFunc == nil {
		return nil
	}
	return f.StopFunc(ctx)
}

// Healthy runs HealthyFunc when set.
func (f Funcs) Healthy() error {
	if f.HealthyFunc == nil {
		return nil
	}
	return f.HealthyFunc()
}

// StopFunc wraps a context-free teardown (the shape of the old ad-hoc
// cleanup slices) as a Component. The wrapped function runs exactly once
// however many times Stop is invoked.
func StopFunc(stop func()) Component {
	var once sync.Once
	return Funcs{StopFunc: func(context.Context) error {
		once.Do(stop)
		return nil
	}}
}

// StopErrFunc is StopFunc for teardowns that report an error.
func StopErrFunc(stop func() error) Component {
	var (
		once sync.Once
		err  error
	)
	return Funcs{StopFunc: func(context.Context) error {
		once.Do(func() { err = stop() })
		return err
	}}
}

// DefaultDrain is the per-component stop deadline when the component
// declares none. Two seconds is long enough
// for an in-flight NTCP execute against an emulated rig and short enough
// that `kill -TERM` feels immediate at the console.
const DefaultDrain = 2 * time.Second

// Supervisor state machine. States only move forward.
const (
	stateNew = iota
	stateStarting
	stateReady
	stateDraining
	stateStopped
	stateFailed
)

func stateName(s int) string {
	switch s {
	case stateNew:
		return "new"
	case stateStarting:
		return "starting"
	case stateReady:
		return "ready"
	case stateDraining:
		return "draining"
	case stateStopped:
		return "stopped"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

type managed struct {
	name    string
	c       Component
	drain   time.Duration
	started bool
}

// Supervisor owns an ordered set of components: Start brings them up in
// declared (dependency) order, Stop drains them in reverse with a
// per-component deadline, and Ready/Healthy expose the aggregate state
// for the /readyz and /healthz probes. A Supervisor is itself a
// Component, so harness topologies compose as supervised trees (an
// Experiment supervises Sites; each Site supervises its container, NTCP
// server, rig daemon and hub).
type Supervisor struct {
	name     string
	lameDuck time.Duration

	mu      sync.Mutex
	comps   []*managed
	state   int
	stopErr error
}

// Option configures a Supervisor.
type Option func(*Supervisor)

// WithLameDuck makes Stop pause after flipping readiness (so /readyz
// serves 503) before the first component is stopped — the lame-duck
// window that lets load balancers and probes observe the drain before
// the listeners start closing.
func WithLameDuck(d time.Duration) Option {
	return func(s *Supervisor) {
		if d > 0 {
			s.lameDuck = d
		}
	}
}

// NewSupervisor creates an empty supervisor named for its process or
// subsystem (the name prefixes error messages).
func NewSupervisor(name string, opts ...Option) *Supervisor {
	s := &Supervisor{name: name}
	for _, o := range opts {
		o(s)
	}
	return s
}

// CompOption configures one component registration.
type CompOption func(*managed)

// WithDrain overrides the component's stop deadline.
func WithDrain(d time.Duration) CompOption {
	return func(m *managed) {
		if d > 0 {
			m.drain = d
		}
	}
}

// Add registers a component. Components start in registration order and
// stop in reverse, so dependencies register before their dependents
// (listener before the service that needs it; the debug/probe server
// first of all, so it outlives the drain and keeps answering /readyz).
// Add panics after Start — the component set is fixed at boot, which is
// what makes the stop order trustworthy.
func (s *Supervisor) Add(name string, c Component, opts ...CompOption) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateNew {
		panic(fmt.Sprintf("runtime: %s: Add(%q) after Start", s.name, name))
	}
	m := &managed{name: name, c: c, drain: DefaultDrain}
	for _, o := range opts {
		o(m)
	}
	s.comps = append(s.comps, m)
}

// Adopt registers a component that is already running — the harness
// pattern, where sites start their rig daemons and containers inline
// while building the topology. The component joins the stop order
// immediately (Stop will reach it even if Start is never called); a
// later Start skips it.
func (s *Supervisor) Adopt(name string, c Component, opts ...CompOption) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateNew {
		panic(fmt.Sprintf("runtime: %s: Adopt(%q) after Start", s.name, name))
	}
	m := &managed{name: name, c: c, drain: DefaultDrain, started: true}
	for _, o := range opts {
		o(m)
	}
	s.comps = append(s.comps, m)
}

// Start brings every component up in declared order. On the first
// failure it stops the components already started (in reverse, best
// effort) and returns the failing component's error joined with any
// rollback Stop errors; the supervisor is then failed and cannot be
// restarted.
func (s *Supervisor) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.state != stateNew {
		st := s.state
		s.mu.Unlock()
		return fmt.Errorf("runtime: %s: Start in state %s", s.name, stateName(st))
	}
	s.state = stateStarting
	comps := s.comps
	s.mu.Unlock()

	for _, m := range comps {
		if m.started {
			continue // adopted while already running
		}
		if err := ctx.Err(); err != nil {
			return s.failStart(fmt.Errorf("runtime: %s: start aborted: %w", s.name, err))
		}
		if err := m.c.Start(ctx); err != nil {
			return s.failStart(fmt.Errorf("runtime: %s: start %s: %w", s.name, m.name, err))
		}
		s.mu.Lock()
		m.started = true
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.state = stateReady
	s.mu.Unlock()
	return nil
}

// failStart rolls back the components already started when a start
// failed. It returns cause joined with every rollback Stop error, and
// records the same error as the one a later Stop returns.
func (s *Supervisor) failStart(cause error) error {
	s.mu.Lock()
	s.state = stateFailed
	s.stopErr = cause
	comps := s.comps
	s.mu.Unlock()
	errs := []error{cause}
	for j := len(comps) - 1; j >= 0; j-- {
		m := comps[j]
		if !m.started {
			continue
		}
		sctx, cancel := context.WithTimeout(context.Background(), m.drain)
		if err := m.c.Stop(sctx); err != nil {
			errs = append(errs, fmt.Errorf("runtime: %s: rollback stop %s: %w", s.name, m.name, err))
		}
		cancel()
	}
	err := errors.Join(errs...)
	s.mu.Lock()
	s.stopErr = err
	s.mu.Unlock()
	return err
}

// Stop drains the started components in reverse order. Readiness flips to
// not-ready before anything else happens (then the lame-duck pause, if
// configured, gives probes a chance to see it). Each component gets its
// own drain deadline — the tighter of its declared drain and whatever
// remains of ctx. Errors are joined and returned; a second Stop
// returns the first run's result.
func (s *Supervisor) Stop(ctx context.Context) error {
	s.mu.Lock()
	switch s.state {
	case stateDraining:
		// A concurrent Stop is underway; nothing sensible to wait on
		// without holding the lock, so report that.
		s.mu.Unlock()
		return fmt.Errorf("runtime: %s: already draining", s.name)
	case stateStopped, stateFailed:
		err := s.stopErr
		s.mu.Unlock()
		return err
	}
	s.state = stateDraining // /readyz flips to 503 from here on
	comps := s.comps
	s.mu.Unlock()

	if s.lameDuck > 0 {
		select {
		case <-time.After(s.lameDuck):
		case <-ctx.Done():
		}
	}

	var errs []error
	for i := len(comps) - 1; i >= 0; i-- {
		m := comps[i]
		if !m.started {
			continue
		}
		sctx, cancel := context.WithTimeout(contextOrBackground(ctx), m.drain)
		err := m.c.Stop(sctx)
		cancel()
		if err != nil {
			errs = append(errs, fmt.Errorf("stop %s: %w", m.name, err))
		}
	}
	err := errors.Join(errs...)
	if err != nil {
		err = fmt.Errorf("runtime: %s: %w", s.name, err)
	}
	s.mu.Lock()
	s.state = stateStopped
	s.stopErr = err
	s.mu.Unlock()
	return err
}

// contextOrBackground shields component drains from an already-cancelled
// parent: a SIGTERM cancels the run context, but the teardown that
// follows still deserves its per-component deadline rather than an
// instantly-expired one.
func contextOrBackground(ctx context.Context) context.Context {
	if ctx == nil || ctx.Err() != nil {
		return context.Background()
	}
	return ctx
}

// StopBudget is the total wall-clock Stop may need: the lame-duck pause
// plus every started component's drain deadline, with a little margin.
// Main uses it to bound the shutdown path.
func (s *Supervisor) StopBudget() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	budget := s.lameDuck + time.Second
	for _, m := range s.comps {
		if m.started {
			budget += m.drain
		}
	}
	return budget
}

// Ready reports nil once every component is up, and an error naming the
// current state otherwise. It flips non-nil the moment drain begins —
// the /readyz contract.
func (s *Supervisor) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateReady {
		return nil
	}
	up := 0
	for _, m := range s.comps {
		if m.started {
			up++
		}
	}
	return fmt.Errorf("runtime: %s not ready: %s (%d/%d components up)",
		s.name, stateName(s.state), up, len(s.comps))
}

// Healthy aggregates the started components' health. It reports nil
// while the process is live and every started component is healthy —
// including during drain, when the process is alive and working as
// intended (that is readiness's job to report, not liveness's). A failed
// start or a component reporting an error makes it non-nil.
func (s *Supervisor) Healthy() error {
	s.mu.Lock()
	state := s.state
	comps := make([]*managed, 0, len(s.comps))
	for _, m := range s.comps {
		if m.started {
			comps = append(comps, m)
		}
	}
	s.mu.Unlock()
	if state == stateFailed {
		return fmt.Errorf("runtime: %s failed to start", s.name)
	}
	if state == stateDraining || state == stateStopped {
		// Components are mid-teardown; probing them would report noise.
		return nil
	}
	var errs []error
	for _, m := range comps {
		if err := m.c.Healthy(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.name, err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("runtime: %s unhealthy: %w", s.name, err)
	}
	return nil
}
