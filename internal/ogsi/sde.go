// Package ogsi implements the Open Grid Services Infrastructure concepts the
// NEESgrid architecture is built on: stateful services exposing service data
// elements (SDEs), soft-state lifetime management, service inspection
// (FindServiceData), and a secured request/response transport.
//
// The paper's implementation rode on Globus Toolkit 3 (SOAP/WSDL); this
// package keeps the stateful-service semantics — which is what the paper
// actually exercises and credits in its conclusions — over a canonical
// JSON-over-HTTP wire protocol signed with GSI envelopes (internal/gsi).
package ogsi

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"neesgrid/internal/wirejson"
)

// SDE is one service data element: a named, versioned, timestamped value
// exposed for inspection. NTCP publishes every transaction as an SDE plus a
// "most recently changed" element (paper §2.1).
type SDE struct {
	Name      string          `json:"name"`
	Value     json.RawMessage `json:"value"`
	Version   int             `json:"version"`
	UpdatedAt time.Time       `json:"updated_at"`
}

// SDEStore is a concurrency-safe collection of service data elements with
// change tracking.
type SDEStore struct {
	mu          sync.RWMutex
	elements    map[string]SDE
	computed    map[string]func() any
	sources     []SDESource
	lastChanged string
	clock       func() time.Time
	watchers    map[int]chan SDE
	nextWatcher int
}

// An SDESource answers for a family of elements that live in a service's
// own state instead of in the store — NTCP's transaction table backs
// tx:<name>, last-transaction and stats — so the service keeps the one copy
// and a value is encoded only when somebody reads or watches it. The source
// owns each element's version and update time; it tells the store of a new
// version with Changed. The store asks its sources before its own elements,
// and never while holding its lock.
type SDESource interface {
	// SDE returns the element called name, its value encoded, or false
	// when the source does not hold it.
	SDE(name string) (SDE, bool)
	// SDENames appends the names of every element the source holds.
	SDENames(dst []string) []string
}

// NewSDEStore returns an empty store.
func NewSDEStore() *SDEStore {
	return &SDEStore{
		elements: make(map[string]SDE),
		computed: make(map[string]func() any),
		clock:    time.Now,
		watchers: make(map[int]chan SDE),
	}
}

// SetComputed registers a computed element: its value is produced by fn at
// read time (Get/Query) rather than stored. Computed elements carry a fixed
// Version of 1 and never count as "last changed" or wake watchers — they are
// for always-current introspection data (e.g. the container's "metrics"
// SDE) whose refresh must not drown out real state-change notifications.
// A stored element with the same name shadows the computed one.
func (s *SDEStore) SetComputed(name string, fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.computed[name] = fn
}

// AddSource has src answer for the elements it holds.
func (s *SDEStore) AddSource(src SDESource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = append(s.sources, src)
}

// Changed reports new versions of elements a source holds, in order: the
// last named becomes the last-changed element, and each is read from its
// source and delivered to the watchers, if there are any.
func (s *SDEStore) Changed(names ...string) {
	if len(names) == 0 {
		return
	}
	s.mu.Lock()
	s.lastChanged = names[len(names)-1]
	watchers := s.watching()
	s.mu.Unlock()
	if len(watchers) == 0 {
		return
	}
	for _, name := range names {
		if sde, ok := s.Get(name); ok {
			deliver(watchers, sde)
		}
	}
}

// watching snapshots the watcher channels. Called with s.mu held.
func (s *SDEStore) watching() []chan SDE {
	if len(s.watchers) == 0 {
		return nil
	}
	watchers := make([]chan SDE, 0, len(s.watchers))
	for _, ch := range s.watchers {
		watchers = append(watchers, ch)
	}
	return watchers
}

// deliver offers sde to each watcher without blocking.
func deliver(watchers []chan SDE, sde SDE) {
	for _, ch := range watchers {
		select {
		case ch <- sde:
		default: // slow watcher: drop, matching NSDS best-effort semantics
		}
	}
}

// materialize evaluates a computed element. Called without the lock held so
// fn may take its own locks freely.
func (s *SDEStore) materialize(name string, fn func() any) (SDE, bool) {
	raw, err := json.Marshal(fn())
	if err != nil {
		return SDE{}, false
	}
	return SDE{Name: name, Value: raw, Version: 1, UpdatedAt: s.clock()}, true
}

// SetClock overrides the time source (tests).
func (s *SDEStore) SetClock(clock func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = clock
}

// Set stores v under name, bumping the version.
func (s *SDEStore) Set(name string, v any) error {
	raw, err := wirejson.Append(nil, v)
	if err != nil {
		return fmt.Errorf("ogsi: marshal SDE %s: %w", name, err)
	}
	s.mu.Lock()
	sde := SDE{Name: name, Value: raw, Version: s.elements[name].Version + 1, UpdatedAt: s.clock()}
	s.elements[name] = sde
	s.lastChanged = name
	watchers := s.watching()
	s.mu.Unlock()
	deliver(watchers, sde)
	return nil
}

// Delete removes an element (stored and computed forms alike; an element a
// source holds goes when the source drops it).
func (s *SDEStore) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.elements, name)
	delete(s.computed, name)
	if s.lastChanged == name {
		s.lastChanged = ""
	}
}

// Get returns the element and whether it exists.
func (s *SDEStore) Get(name string) (SDE, bool) {
	s.mu.RLock()
	sources := s.sources
	sde, stored := s.elements[name]
	fn := s.computed[name]
	s.mu.RUnlock()
	for _, src := range sources {
		if sde, ok := src.SDE(name); ok {
			return sde, true
		}
	}
	if stored {
		return sde, true
	}
	if fn == nil {
		return SDE{}, false
	}
	return s.materialize(name, fn)
}

// GetInto unmarshals the element value into out.
func (s *SDEStore) GetInto(name string, out any) error {
	sde, ok := s.Get(name)
	if !ok {
		return fmt.Errorf("ogsi: no SDE %q", name)
	}
	return json.Unmarshal(sde.Value, out)
}

// Query returns the named elements; with no names it returns every element
// (sourced, stored and computed), sorted by name (FindServiceData semantics).
func (s *SDEStore) Query(names ...string) []SDE {
	var out []SDE
	if len(names) == 0 {
		names = s.names()
		out = make([]SDE, 0, len(names))
	}
	for _, n := range names {
		if sde, ok := s.Get(n); ok {
			out = append(out, sde)
		}
	}
	return out
}

// names lists every element once, sorted.
func (s *SDEStore) names() []string {
	s.mu.RLock()
	sources := s.sources
	names := make([]string, 0, len(s.elements)+len(s.computed))
	for n := range s.elements {
		names = append(names, n)
	}
	for n := range s.computed {
		if _, shadowed := s.elements[n]; !shadowed {
			names = append(names, n)
		}
	}
	s.mu.RUnlock()
	for _, src := range sources {
		names = src.SDENames(names)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// LastChanged returns the most recently changed element — the SDE the paper
// uses to monitor server behaviour as a whole.
func (s *SDEStore) LastChanged() (SDE, bool) {
	s.mu.RLock()
	name := s.lastChanged
	s.mu.RUnlock()
	if name == "" {
		return SDE{}, false
	}
	return s.Get(name)
}

// Len returns the number of elements, sourced and computed ones included.
func (s *SDEStore) Len() int { return len(s.names()) }

// WaitChange blocks until the named element's version exceeds
// sinceVersion, the element is first created (sinceVersion 0), or ctx ends.
// It is the primitive behind the container's long-poll notification op —
// the OGSI notification-source role.
func (s *SDEStore) WaitChange(ctx context.Context, name string, sinceVersion int) (SDE, error) {
	// Subscribe before checking so no update is missed in between.
	ch, cancel := s.Watch(16)
	defer cancel()
	if sde, ok := s.Get(name); ok && sde.Version > sinceVersion {
		return sde, nil
	}
	for {
		select {
		case sde, ok := <-ch:
			if !ok {
				return SDE{}, fmt.Errorf("ogsi: watch closed")
			}
			if sde.Name == name && sde.Version > sinceVersion {
				return sde, nil
			}
			// A flood of other updates can overflow the watch buffer and
			// drop our element's change; re-check the store directly.
			if cur, ok := s.Get(name); ok && cur.Version > sinceVersion {
				return cur, nil
			}
		case <-ctx.Done():
			return SDE{}, ctx.Err()
		}
	}
}

// Watch returns a channel receiving subsequent SDE updates (best effort:
// slow receivers miss updates rather than blocking the service) and a
// cancel function.
func (s *SDEStore) Watch(buffer int) (<-chan SDE, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan SDE, buffer)
	s.mu.Lock()
	id := s.nextWatcher
	s.nextWatcher++
	s.watchers[id] = ch
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		delete(s.watchers, id)
		s.mu.Unlock()
	}
}
