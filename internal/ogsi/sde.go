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
	elements    map[string]*element
	computed    map[string]func() any
	lastChanged string
	clock       func() time.Time
	watchers    map[int]chan SDE
	nextWatcher int
}

// element is one stored SDE. A value handed to Set is encoded when the
// element is first read, not when it is written: NTCP publishes three
// elements on every transaction state change and, during a run, nothing reads
// them. Until then sde.Value is nil and pending holds the value.
type element struct {
	sde     SDE
	pending any
	encode  sync.Once
	err     error
}

// read returns the element with its value encoded, encoding it on the first
// call. ok is false for a value that cannot be encoded.
func (e *element) read() (SDE, bool) {
	e.encode.Do(func() {
		e.sde.Value, e.err = wirejson.Append(nil, e.pending)
		e.pending = nil
	})
	return e.sde, e.err == nil
}

// deferrable reports whether encoding v may wait for the first read: it
// cannot fail, or v owns its encoding.
func deferrable(v any) bool {
	switch v.(type) {
	case wirejson.Appender, string, bool, int:
		return true
	}
	return false
}

// NewSDEStore returns an empty store.
func NewSDEStore() *SDEStore {
	return &SDEStore{
		elements: make(map[string]*element),
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

// Set stores v under name, bumping the version. v is encoded on first read
// (Get, Query, LastChanged, delivery to a watcher), so it must not change
// after Set returns: pass a private copy. A value that encodes itself
// (wirejson.Appender — the NTCP transaction record and counters) is taken on
// trust; if its encoding fails at that first read the element reads as
// absent, like a computed element whose function fails. A value of any other
// type that could fail to encode is encoded now, and Set fails as it always
// did.
func (s *SDEStore) Set(name string, v any) error {
	e := &element{sde: SDE{Name: name}, pending: v}
	if !deferrable(v) {
		if _, ok := e.read(); !ok {
			return fmt.Errorf("ogsi: marshal SDE %s: %w", name, e.err)
		}
	}
	s.mu.Lock()
	if prev := s.elements[name]; prev != nil {
		e.sde.Version = prev.sde.Version
	}
	e.sde.Version++
	e.sde.UpdatedAt = s.clock()
	s.elements[name] = e
	s.lastChanged = name
	watchers := make([]chan SDE, 0, len(s.watchers))
	for _, ch := range s.watchers {
		watchers = append(watchers, ch)
	}
	s.mu.Unlock()
	if len(watchers) == 0 {
		return nil
	}
	sde, ok := e.read()
	if !ok {
		return nil
	}
	for _, ch := range watchers {
		select {
		case ch <- sde:
		default: // slow watcher: drop, matching NSDS best-effort semantics
		}
	}
	return nil
}

// Delete removes an element (stored and computed forms alike).
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
	e := s.elements[name]
	fn := s.computed[name]
	s.mu.RUnlock()
	if e != nil {
		return e.read()
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
// (stored and computed), sorted by name (FindServiceData semantics).
func (s *SDEStore) Query(names ...string) []SDE {
	if len(names) == 0 {
		s.mu.RLock()
		stored := make([]*element, 0, len(s.elements))
		for _, e := range s.elements {
			stored = append(stored, e)
		}
		pending := make(map[string]func() any, len(s.computed))
		for n, fn := range s.computed {
			if _, shadowed := s.elements[n]; !shadowed {
				pending[n] = fn
			}
		}
		s.mu.RUnlock()
		out := make([]SDE, 0, len(stored)+len(pending))
		for _, e := range stored {
			if sde, ok := e.read(); ok {
				out = append(out, sde)
			}
		}
		for n, fn := range pending {
			if sde, ok := s.materialize(n, fn); ok {
				out = append(out, sde)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	var out []SDE
	for _, n := range names {
		if sde, ok := s.Get(n); ok {
			out = append(out, sde)
		}
	}
	return out
}

// LastChanged returns the most recently changed element — the SDE the paper
// uses to monitor server behaviour as a whole.
func (s *SDEStore) LastChanged() (SDE, bool) {
	s.mu.RLock()
	e := s.elements[s.lastChanged]
	none := s.lastChanged == ""
	s.mu.RUnlock()
	if none || e == nil {
		return SDE{}, false
	}
	return e.read()
}

// Len returns the number of elements, computed ones included.
func (s *SDEStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.elements)
	for name := range s.computed {
		if _, shadowed := s.elements[name]; !shadowed {
			n++
		}
	}
	return n
}

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
