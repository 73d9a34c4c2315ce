package ogsi

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

func TestSDESetGet(t *testing.T) {
	s := NewSDEStore()
	if err := s.Set("status", "running"); err != nil {
		t.Fatal(err)
	}
	var v string
	if err := s.GetInto("status", &v); err != nil {
		t.Fatal(err)
	}
	if v != "running" {
		t.Fatalf("value = %q", v)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}
	if err := s.GetInto("missing", &v); err == nil {
		t.Fatal("GetInto missing should fail")
	}
}

func TestSDEVersionBumps(t *testing.T) {
	s := NewSDEStore()
	_ = s.Set("x", 1)
	_ = s.Set("x", 2)
	sde, _ := s.Get("x")
	if sde.Version != 2 {
		t.Fatalf("version = %d, want 2", sde.Version)
	}
}

func TestSDELastChanged(t *testing.T) {
	s := NewSDEStore()
	if _, ok := s.LastChanged(); ok {
		t.Fatal("empty store has no last-changed")
	}
	_ = s.Set("a", 1)
	_ = s.Set("b", 2)
	sde, ok := s.LastChanged()
	if !ok || sde.Name != "b" {
		t.Fatalf("last changed = %v %v", sde.Name, ok)
	}
	_ = s.Set("a", 3)
	sde, _ = s.LastChanged()
	if sde.Name != "a" {
		t.Fatalf("last changed = %v, want a", sde.Name)
	}
}

func TestSDEQueryAllSorted(t *testing.T) {
	s := NewSDEStore()
	_ = s.Set("b", 1)
	_ = s.Set("a", 2)
	_ = s.Set("c", 3)
	all := s.Query()
	if len(all) != 3 || all[0].Name != "a" || all[2].Name != "c" {
		t.Fatalf("Query() = %v", all)
	}
	some := s.Query("c", "missing", "a")
	if len(some) != 2 {
		t.Fatalf("Query(names) = %v", some)
	}
}

func TestSDEDelete(t *testing.T) {
	s := NewSDEStore()
	_ = s.Set("a", 1)
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted element still present")
	}
	if _, ok := s.LastChanged(); ok {
		t.Fatal("last-changed should clear when that element is deleted")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestSDEWatch(t *testing.T) {
	s := NewSDEStore()
	ch, cancel := s.Watch(4)
	defer cancel()
	_ = s.Set("tx", "proposed")
	select {
	case sde := <-ch:
		if sde.Name != "tx" {
			t.Fatalf("watched %q", sde.Name)
		}
	case <-time.After(time.Second):
		t.Fatal("watch did not deliver")
	}
}

func TestSDEWatchDropsWhenFull(t *testing.T) {
	s := NewSDEStore()
	ch, cancel := s.Watch(1)
	defer cancel()
	_ = s.Set("a", 1)
	_ = s.Set("a", 2) // buffer full: dropped, must not block
	_ = s.Set("a", 3)
	got := <-ch
	if got.Name != "a" {
		t.Fatalf("got %q", got.Name)
	}
}

func TestSDEWatchCancel(t *testing.T) {
	s := NewSDEStore()
	_, cancel := s.Watch(1)
	cancel()
	_ = s.Set("a", 1) // must not panic or block
}

func TestSDESetUnmarshalable(t *testing.T) {
	s := NewSDEStore()
	if err := s.Set("bad", func() {}); err == nil {
		t.Fatal("functions are not JSON-marshalable; Set should fail")
	}
}

func TestLifetimeRegisterAliveExpire(t *testing.T) {
	lm := NewLifetimeManager()
	now := time.Unix(1000, 0)
	lm.SetClock(func() time.Time { return now })
	expired := false
	lm.Register("tx-1", 10*time.Second, func(string) { expired = true })
	if !lm.Alive("tx-1") {
		t.Fatal("fresh resource should be alive")
	}
	now = now.Add(11 * time.Second)
	if lm.Alive("tx-1") {
		t.Fatal("resource should have expired")
	}
	ids := lm.Sweep()
	if len(ids) != 1 || ids[0] != "tx-1" || !expired {
		t.Fatalf("Sweep = %v, expired = %v", ids, expired)
	}
	if lm.Len() != 0 {
		t.Fatal("swept resource still registered")
	}
}

func TestLifetimeKeepalive(t *testing.T) {
	lm := NewLifetimeManager()
	now := time.Unix(1000, 0)
	lm.SetClock(func() time.Time { return now })
	lm.Register("tx", 10*time.Second, nil)
	now = now.Add(8 * time.Second)
	if !lm.RequestTermination("tx", 10*time.Second) {
		t.Fatal("keepalive on live resource failed")
	}
	now = now.Add(9 * time.Second) // 17s after registration, 9s after extend
	if !lm.Alive("tx") {
		t.Fatal("extended resource should be alive")
	}
	if lm.RequestTermination("gone", time.Second) {
		t.Fatal("keepalive on unknown resource should fail")
	}
}

func TestLifetimeDestroySkipsCallback(t *testing.T) {
	lm := NewLifetimeManager()
	now := time.Unix(1000, 0)
	lm.SetClock(func() time.Time { return now })
	fired := false
	lm.Register("tx", time.Second, func(string) { fired = true })
	lm.Destroy("tx")
	now = now.Add(time.Hour)
	lm.Sweep()
	if fired {
		t.Fatal("Destroy must not fire the expiry callback")
	}
	if _, ok := lm.Deadline("tx"); ok {
		t.Fatal("destroyed resource still has a deadline")
	}
}

// TestLifetimeSweepTakesOnlyTheExpired: the index hands Sweep the expired
// entries in deadline order and leaves the rest; a keepalive moves an entry
// within the index, and one callback serves every id.
func TestLifetimeSweepTakesOnlyTheExpired(t *testing.T) {
	lm := NewLifetimeManager()
	now := time.Unix(1000, 0)
	lm.SetClock(func() time.Time { return now })
	var fired []string
	onExpire := func(id string) { fired = append(fired, id) }
	for i, ttl := range []int{50, 10, 40, 20, 30} {
		lm.Register(fmt.Sprint("tx-", i), time.Duration(ttl)*time.Second, onExpire)
	}
	lm.RequestTermination("tx-1", 60*time.Second) // was first to go, now last
	lm.Destroy("tx-2")
	now = now.Add(35 * time.Second)
	if got := lm.Sweep(); fmt.Sprint(got) != "[tx-3 tx-4]" || fmt.Sprint(fired) != "[tx-3 tx-4]" {
		t.Fatalf("Sweep = %v, fired %v", got, fired)
	}
	if lm.Len() != 2 || !lm.Alive("tx-0") || !lm.Alive("tx-1") {
		t.Fatalf("%d left, tx-0 alive %v, tx-1 alive %v", lm.Len(), lm.Alive("tx-0"), lm.Alive("tx-1"))
	}
	now = now.Add(time.Hour)
	if got := lm.Sweep(); fmt.Sprint(got) != "[tx-0 tx-1]" || lm.Len() != 0 {
		t.Fatalf("Sweep = %v, %d left", got, lm.Len())
	}
	if got := lm.Sweep(); got != nil {
		t.Fatalf("empty index swept %v", got)
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

// Destroy removes a resource without firing its expiry callback.
func (lm *LifetimeManager) Destroy(id string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if l, ok := lm.byID[id]; ok {
		heap.Remove(&lm.byTime, l.index)
		delete(lm.byID, id)
	}
}
