package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingPlugin executes every action, counting executions by displacement
// (which names the transaction, see FuzzServerTransitions), and fails the
// one at displacement fail.
type countingPlugin struct {
	fail  float64
	mu    sync.Mutex
	execs map[float64]int
}

func (p *countingPlugin) Validate(context.Context, []Action) error { return nil }

func (p *countingPlugin) Execute(_ context.Context, actions []Action) ([]Result, error) {
	d := actions[0].Displacements[0]
	p.mu.Lock()
	p.execs[d]++
	p.mu.Unlock()
	if d == p.fail {
		return nil, errPluginFailed
	}
	return []Result{{ControlPoint: actions[0].ControlPoint, Displacements: actions[0].Displacements, Forces: []float64{d}}}, nil
}

var errPluginFailed = errors.New("actuator fault")

// publishedTransitions is how many state changes a transaction in state st
// has published: one per step along Fig. 1 after proposed.
var publishedTransitions = map[TxState]int{
	StateAccepted: 1, StateRejected: 1,
	StateExecuting: 2, StateCancelled: 2,
	StateExecuted: 3, StateFailed: 3,
}

// FuzzServerTransitions drives one server with a script of propose, execute,
// cancel, get, requestTermination and clock advances (each followed by the
// reaper's sweep), by two clients over three names, and checks after every
// step that
//
//   - no transaction executes twice: the plugin ran a name's actions at most
//     as many times as the name was newly proposed (it becomes free again when
//     its record expires);
//   - no client receives a record it does not own;
//   - tx:<name> reads exactly the bytes of the record's encoding, with a
//     version equal to the state changes it published, and exists exactly
//     while the record does;
//   - the table, the tx:<name> family and the lifetime index have one size.
//
// Each script byte is one step: bits 0–2 pick the op (mod 6), bit 3 the
// client, bits 4–7 the name (mod 3) or, for an advance, the seconds.
func FuzzServerTransitions(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x01, 0x01, 0x03, 0x09, 0x08},       // alice proposes and executes n0, twice; bob tries it
		{0x10, 0x12, 0x11, 0x1a, 0x18, 0x13},       // n1: propose, cancel, execute; bob's turn
		{0x10, 0x11, 0x11, 0x18, 0x19},             // alice's n1 fails, and replays; bob is denied
		{0x28, 0x29, 0x20, 0x21, 0x14, 0xf5, 0xf5}, // bob is rejected on n2, alice denied it; time passes
		{0x00, 0x04, 0x35, 0x01, 0xb5, 0x00, 0x01}, // keepalive, expiry, the name proposed afresh
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		names := [3]string{"run/step-0/uiuc", "run/step-1/uiuc", `odd "name" <&>`}
		clients := [2]string{"/O=NEES/CN=alice", "/O=NEES/CN=bob"}
		// displacement names a (name, client) pair: bob's are past alice's,
		// and bob's n2 is over the policy limit.
		displacement := func(k, c int) float64 { return float64(k+1)/1000 + float64(c)/4 }
		limit := displacement(1, 1)

		start := time.Unix(1_000_000, 0)
		var clock atomic.Pointer[time.Time]
		clock.Store(&start)
		plug := &countingPlugin{fail: displacement(1, 0), execs: map[float64]int{}}
		s := NewServer(plug, &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: limit}}},
			ServerOptions{DefaultTTL: 10 * time.Second, Clock: func() time.Time { return *clock.Load() }})
		ctx := context.Background()
		var created [3]int

		for step, b := range script {
			op, c, k := (b&7)%6, int(b>>3)&1, int(b>>4)%3
			name, client := names[k], clients[c]
			var rec *Record
			switch op {
			case 0:
				before := s.Stats().Proposed
				rec, _ = s.Propose(ctx, client, &Proposal{Name: name, TTLSeconds: 10,
					Actions: []Action{{ControlPoint: "drift", Displacements: []float64{displacement(k, c)}}}})
				if s.Stats().Proposed > before {
					created[k]++
				}
			case 1:
				rec, _ = s.Execute(ctx, client, name)
			case 2:
				rec, _ = s.Cancel(ctx, client, name)
			case 3:
				rec, _ = s.getFor(client, name)
			case 4:
				s.Service().Lifetimes.RequestTermination(name, 10*time.Second)
			case 5:
				next := clock.Load().Add(time.Duration(b>>4) * time.Second)
				clock.Store(&next)
				s.Service().Lifetimes.Sweep()
			}
			if rec != nil && (rec.Client != client || rec.Name != name) {
				t.Fatalf("step %d: %s received %s's record of %q", step, client, rec.Client, rec.Name)
			}

			present := 0
			for k, name := range names {
				plug.mu.Lock()
				execs := plug.execs[displacement(k, 0)] + plug.execs[displacement(k, 1)]
				plug.mu.Unlock()
				if execs > created[k] {
					t.Fatalf("step %d: %q executed %d times in %d incarnations", step, name, execs, created[k])
				}
				rec, err := s.Get(name)
				sde, published := s.Service().SDEs.Get(txPrefix + name)
				if err != nil {
					if published {
						t.Fatalf("step %d: tx:%s outlives its record", step, name)
					}
					continue
				}
				present++
				want, _ := rec.AppendJSON(nil)
				if !published || !bytes.Equal(sde.Value, want) || sde.Version != publishedTransitions[rec.State] {
					t.Fatalf("step %d: tx:%s = v%d %s (%v), record %s after %d state changes",
						step, name, sde.Version, sde.Value, published, want, publishedTransitions[rec.State])
				}
			}
			if table, family, lifetimes := sizes(s); table != present || family != present || lifetimes != present {
				t.Fatalf("step %d: %d records, table gauge %d, family %d, lifetime index %d",
					step, present, table, family, lifetimes)
			}
		}
	})
}
