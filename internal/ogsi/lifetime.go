package ogsi

import (
	"container/heap"
	"sync"
	"time"
)

// LifetimeManager implements OGSI soft-state lifetime management: resources
// are registered with a termination time, clients extend it with keepalives
// (RequestTermination), and an expiry sweep destroys resources whose
// lifetime lapsed. NTCP transactions and NSDS subscriptions are both
// soft-state resources.
//
// Each resource is one entry, its deadline and its expiry callback, in an
// index ordered by deadline: a sweep pops what has expired and never looks
// at the rest, so the container's once-a-second reaper costs
// O(expired · log n) under a lock that registration also needs, not a scan
// of every live transaction.
type LifetimeManager struct {
	mu     sync.Mutex
	byID   map[string]*lifetime
	byTime deadlines
	clock  func() time.Time
}

// lifetime is one resource's entry in the index.
type lifetime struct {
	id       string
	deadline time.Time
	onExpire func(id string)
	index    int // position in byTime
}

// deadlines is a min-heap of entries by deadline (container/heap).
type deadlines []*lifetime

func (d deadlines) Len() int           { return len(d) }
func (d deadlines) Less(i, j int) bool { return d[i].deadline.Before(d[j].deadline) }
func (d deadlines) Swap(i, j int) {
	d[i], d[j] = d[j], d[i]
	d[i].index, d[j].index = i, j
}
func (d *deadlines) Push(x any) {
	l := x.(*lifetime)
	l.index = len(*d)
	*d = append(*d, l)
}
func (d *deadlines) Pop() any {
	old := *d
	l := old[len(old)-1]
	old[len(old)-1] = nil
	*d = old[:len(old)-1]
	return l
}

// NewLifetimeManager returns an empty manager.
func NewLifetimeManager() *LifetimeManager {
	return &LifetimeManager{byID: make(map[string]*lifetime), clock: time.Now}
}

// SetClock overrides the time source (tests).
func (lm *LifetimeManager) SetClock(clock func() time.Time) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.clock = clock
}

// Register adds a resource with an initial time-to-live and an optional
// expiry callback, invoked with the id outside the lock by Sweep (one
// function can serve every resource of a service). Registering a live id
// again resets its deadline and callback.
func (lm *LifetimeManager) Register(id string, ttl time.Duration, onExpire func(id string)) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	deadline := lm.clock().Add(ttl)
	if l, ok := lm.byID[id]; ok {
		l.deadline, l.onExpire = deadline, onExpire
		heap.Fix(&lm.byTime, l.index)
		return
	}
	l := &lifetime{id: id, deadline: deadline, onExpire: onExpire}
	lm.byID[id] = l
	heap.Push(&lm.byTime, l)
}

// RequestTermination sets the resource's termination time ttl from now —
// the OGSI keepalive. It reports whether the resource is still alive.
func (lm *LifetimeManager) RequestTermination(id string, ttl time.Duration) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.byID[id]
	if !ok {
		return false
	}
	l.deadline = lm.clock().Add(ttl)
	heap.Fix(&lm.byTime, l.index)
	return true
}

// Destroy removes a resource without firing its expiry callback.
func (lm *LifetimeManager) Destroy(id string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if l, ok := lm.byID[id]; ok {
		heap.Remove(&lm.byTime, l.index)
		delete(lm.byID, id)
	}
}

// Alive reports whether the resource exists and has not expired.
func (lm *LifetimeManager) Alive(id string) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.byID[id]
	return ok && lm.clock().Before(l.deadline)
}

// Deadline returns the current termination time.
func (lm *LifetimeManager) Deadline(id string) (time.Time, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.byID[id]
	if !ok {
		return time.Time{}, false
	}
	return l.deadline, true
}

// Sweep destroys every expired resource, invoking expiry callbacks, and
// returns the ids destroyed.
func (lm *LifetimeManager) Sweep() []string {
	lm.mu.Lock()
	now := lm.clock()
	var expired []*lifetime
	for len(lm.byTime) > 0 && !now.Before(lm.byTime[0].deadline) {
		l := heap.Pop(&lm.byTime).(*lifetime)
		delete(lm.byID, l.id)
		expired = append(expired, l)
	}
	lm.mu.Unlock()
	var ids []string
	for _, l := range expired {
		ids = append(ids, l.id)
		if l.onExpire != nil {
			l.onExpire(l.id)
		}
	}
	return ids
}

// Run sweeps at the given interval until stop is closed. It is the
// container's background reaper.
func (lm *LifetimeManager) Run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			lm.Sweep()
		case <-stop:
			return
		}
	}
}

// Len returns the number of live resources (expired but unswept resources
// included).
func (lm *LifetimeManager) Len() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.byID)
}
