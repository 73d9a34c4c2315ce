package core

import (
	"context"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/ogsi"
	"neesgrid/internal/runtime"
	"neesgrid/internal/runtime/envtest"
	"neesgrid/internal/trace"
)

// TestForeignNameIsDenied: a client naming a transaction another client owns
// is denied by every op and gets none of the record — before this fix,
// Propose and ProposeAndExecute answered bob with alice's record, results
// included, and counted it as a deduped replay.
func TestForeignNameIsDenied(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	ctx := context.Background()
	if rec, err := s.ProposeAndExecute(ctx, "alice", proposal("t1", 0.02)); err != nil || rec.State != StateExecuted {
		t.Fatalf("alice: %+v %v", rec, err)
	}
	denied := func(op string, rec *Record, err error) {
		t.Helper()
		if !ogsi.IsRemoteCode(wrapOp(err), ogsi.CodeDenied) || rec != nil {
			t.Fatalf("bob's %s: %+v %v, want denied", op, rec, err)
		}
	}
	rec, err := s.ProposeAndExecute(ctx, "bob", proposal("t1", 0.05))
	denied("ProposeAndExecute", rec, err)
	rec, err = s.Propose(ctx, "bob", proposal("t1", 0.05))
	denied("Propose", rec, err)
	rec, err = s.Execute(ctx, "bob", "t1")
	denied("Execute", rec, err)
	rec, err = s.Cancel(ctx, "bob", "t1")
	denied("Cancel", rec, err)
	rec, err = s.getFor("bob", "t1")
	denied("get", rec, err)
	if st := s.Stats(); st.DedupedReplay != 0 || st.Executed != 1 {
		t.Fatalf("after bob's attempts: %+v", st)
	}
	// The owner's replay is still answered from the table, and counted.
	if rec, err := s.ProposeAndExecute(ctx, "alice", proposal("t1", 0.05)); err != nil ||
		rec.State != StateExecuted || rec.Results[0].Forces[0] != 2 || s.Stats().DedupedReplay != 1 {
		t.Fatalf("alice's replay: %+v %v (%+v)", rec, err, s.Stats())
	}
}

// TestServerTransactionAllocations holds a traced in-process Propose +
// Execute — record, reply snapshots, spans, lifetime entry, the execution's
// goroutine and context — to its allocation count (21 on amd64).
func TestServerTransactionAllocations(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{Tracer: trace.NewTracer(nil, "site", nil)})
	ctx := context.Background()
	names := make([]string, 2000)
	for i := range names {
		names[i] = fmt.Sprintf("run/step-%d/uiuc", i)
	}
	props := make([]*Proposal, len(names))
	for i, name := range names {
		props[i] = proposal(name, 0.01)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := props[i]
		i++
		if _, err := s.Propose(ctx, "coordinator", p); err != nil {
			t.Fatal(err)
		}
		if rec, err := s.Execute(ctx, "coordinator", p.Name); err != nil || rec.State != StateExecuted {
			t.Fatalf("%+v %v", rec, err)
		}
	})
	t.Logf("Propose + Execute: %.0f allocations", allocs)
	if allocs > 28 {
		t.Errorf("Propose + Execute allocates %.0f times, ceiling 28", allocs)
	}
}

// TestRetainedBytesPerTransaction: what a finished transaction keeps alive
// for its soft-state lifetime — table entry, record, name, actions, results,
// lifetime entry — stays under a stated ceiling (525 B on amd64).
func TestRetainedBytesPerTransaction(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000 transactions")
	}
	const n = 10000
	const ceiling = 640 // bytes per transaction
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	ctx := context.Background()
	props := make([]*Proposal, n)
	for i := range props {
		props[i] = proposal(fmt.Sprintf("run-%d/step-%d/uiuc", i/1500, i%1500), 0.01)
	}
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for _, p := range props {
		if _, err := s.ProposeAndExecute(ctx, "/O=NEES/CN=coordinator", p); err != nil {
			t.Fatal(err)
		}
	}
	props = nil
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	perTx := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f bytes retained per transaction", perTx)
	if perTx > ceiling {
		t.Errorf("%.0f bytes retained per transaction, ceiling %d", perTx, ceiling)
	}
	if got := s.Stats().Executed; got != n {
		t.Fatalf("executed %d of %d", got, n)
	}
	goruntime.KeepAlive(s)
}

// holdPlugin blocks the execution of the action at displacement hold until
// release closes; every other action executes at once.
type holdPlugin struct {
	hold    float64
	started chan struct{}
	release chan struct{}
}

func (p *holdPlugin) Validate(context.Context, []Action) error { return nil }

func (p *holdPlugin) Execute(_ context.Context, actions []Action) ([]Result, error) {
	if actions[0].Displacements[0] == p.hold {
		close(p.started)
		<-p.release
	}
	return []Result{{ControlPoint: actions[0].ControlPoint, Displacements: actions[0].Displacements, Forces: []float64{1}}}, nil
}

// sizes reports the table (the gauge), the tx:<name> family and the
// lifetime index.
func sizes(s *Server) (table, family, lifetimes int) {
	for _, sde := range s.Service().SDEs.Query() {
		if strings.HasPrefix(sde.Name, txPrefix) {
			family++
		}
	}
	return int(s.m.transactions.Value()), family, s.Service().Lifetimes.Len()
}

// TestExpiryEmptiesTableFamilyAndIndex: once the soft-state lifetime passes,
// a sweep leaves the table, the tx:<name> family and the lifetime index all
// exactly empty — except an executing transaction, which is never reaped and
// goes one lifetime after it finishes.
func TestExpiryEmptiesTableFamilyAndIndex(t *testing.T) {
	clk := envtest.NewClock(time.Unix(1_000_000, 0))
	plug := &holdPlugin{hold: 0.5, started: make(chan struct{}), release: make(chan struct{})}
	ttl := time.Minute
	s := newServer(runtime.Env{Clock: clk}, plug, &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 1}}},
		ServerOptions{DefaultTTL: ttl})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		name := fmt.Sprint("t", i)
		switch i % 4 {
		case 0: // executed
			_, _ = s.ProposeAndExecute(ctx, "alice", proposal(name, 0.01))
		case 1: // accepted
			_, _ = s.Propose(ctx, "alice", proposal(name, 0.01))
		case 2: // rejected
			_, _ = s.Propose(ctx, "alice", proposal(name, 2))
		case 3: // cancelled
			_, _ = s.Propose(ctx, "alice", proposal(name, 0.01))
			_, _ = s.Cancel(ctx, "alice", name)
		}
	}
	done := make(chan *Record)
	go func() {
		rec, _ := s.ProposeAndExecute(ctx, "alice", proposal("held", 0.5))
		done <- rec
	}()
	<-plug.started
	if table, family, lifetimes := sizes(s); table != 41 || family != 41 || lifetimes != 41 {
		t.Fatalf("before expiry: table %d, family %d, index %d; want 41 each", table, family, lifetimes)
	}

	clk.Advance(ttl)
	if got := len(s.Service().Lifetimes.Sweep()); got != 41 {
		t.Fatalf("swept %d, want 41", got)
	}
	if table, family, lifetimes := sizes(s); table != 1 || family != 1 || lifetimes != 1 {
		t.Fatalf("after expiry: table %d, family %d, index %d; want only the executing transaction", table, family, lifetimes)
	}
	if rec, err := s.Get("held"); err != nil || rec.State != StateExecuting {
		t.Fatalf("executing transaction: %+v %v", rec, err)
	}

	close(plug.release)
	if rec := <-done; rec == nil || rec.State != StateExecuted {
		t.Fatalf("held transaction finished %+v", rec)
	}
	clk.Advance(ttl)
	s.Service().Lifetimes.Sweep()
	if table, family, lifetimes := sizes(s); table != 0 || family != 0 || lifetimes != 0 {
		t.Fatalf("after the last expiry: table %d, family %d, index %d; want 0 each", table, family, lifetimes)
	}
	if n := s.Telemetry().Snapshot().Counters[cExpired]; n != 41 {
		t.Fatalf("%s = %d, want 41", cExpired, n)
	}
}

// TestSDEReadersRaceTransitions: readers of the service data — Query,
// LastChanged, WaitChange and a watcher — run while several clients drive
// transactions through the table; each element ends at the version its
// state changes give it (run under -race).
func TestSDEReadersRaceTransitions(t *testing.T) {
	s := NewServer(springPlugin(100), nil, ServerOptions{})
	sdes := s.Service().SDEs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watch, stopWatch := sdes.Watch(4)
	defer stopWatch()
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for ctx.Err() == nil {
			sdes.Query()
			sdes.LastChanged()
			select {
			case <-watch:
			default:
			}
		}
	}()
	go func() {
		defer readers.Done()
		for v := 0; ctx.Err() == nil; {
			if sde, err := sdes.WaitChange(ctx, "stats", v); err == nil {
				v = sde.Version
			}
		}
	}()

	const clients, each = 4, 50
	var writers sync.WaitGroup
	for c := 0; c < clients; c++ {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			for i := 0; i < each; i++ {
				if _, err := s.ProposeAndExecute(ctx, fmt.Sprint("c", c), proposal(fmt.Sprintf("c%d/t%d", c, i), 0.01)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	writers.Wait()
	cancel()
	readers.Wait()

	if sde, ok := sdes.Get("stats"); !ok || sde.Version != 3*clients*each {
		t.Fatalf("stats v%d (%v), want %d", sde.Version, ok, 3*clients*each)
	}
	for _, sde := range sdes.Query() {
		if strings.HasPrefix(sde.Name, txPrefix) && sde.Version != 3 {
			t.Fatalf("%s v%d, want 3", sde.Name, sde.Version)
		}
	}
}
