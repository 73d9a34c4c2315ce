package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/ogsi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sde-script.golden")

// TestSDEScriptMatchesRecording runs a fixed transaction script against a
// server on a hand-advanced clock and writes down, after every step, each
// service data element the server publishes: name, version, update time and
// value bytes, plus the last-changed element. testdata/sde-script.golden is
// the reference: it was recorded from a server that stored a deep copy of
// the record in the SDE store at every state change, and reading tx:<name>
// from the table must reproduce it byte for byte.
func TestSDEScriptMatchesRecording(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.FixedZone("cdt", -5*3600))
	fail := errors.New("hydraulic pressure lost")
	plugin := &SubstructurePlugin{Point: "drift", NDOF: 1, Apply: func(d []float64) ([]float64, error) {
		if d[0] == 0.25 {
			return nil, fail
		}
		return []float64{100 * d[0]}, nil
	}}
	policy := &SitePolicy{PointLimits: map[string]Limits{"drift": {MaxDisplacement: 0.5}}}
	s := NewServer(plugin, policy, ServerOptions{Clock: func() time.Time { return now }})
	ctx := context.Background()
	var out strings.Builder

	// dump writes the step's outcome, the name and version of every element,
	// and in full the elements the step may have touched.
	dump := func(step, name string, rec *Record, err error) {
		fmt.Fprintf(&out, "== %s:", step)
		var oe *ogsi.OpError
		switch {
		case errors.As(err, &oe):
			fmt.Fprintf(&out, " fault %s\n", oe.Code)
		case err != nil:
			fmt.Fprintf(&out, " error %v\n", err)
		case rec != nil:
			b, _ := rec.AppendJSON(nil)
			fmt.Fprintf(&out, " %s\n", b)
		default:
			fmt.Fprintln(&out)
		}
		out.WriteString(" ")
		for _, sde := range s.Service().SDEs.Query() {
			fmt.Fprintf(&out, " %s@%d", sde.Name, sde.Version)
		}
		out.WriteString("\n")
		for _, sde := range s.Service().SDEs.Query("tx:"+name, "last-transaction", "stats") {
			fmt.Fprintf(&out, "  %s v%d %s %s\n", sde.Name, sde.Version, sde.UpdatedAt.Format(time.RFC3339Nano), sde.Value)
		}
		if last, ok := s.Service().SDEs.LastChanged(); ok {
			fmt.Fprintf(&out, "  last changed: %s v%d\n", last.Name, last.Version)
		}
	}
	tick := func(d time.Duration) { now = now.Add(d) }
	propose := func(name string, d, ttl float64) {
		rec, err := s.Propose(ctx, "alice", &Proposal{Name: name, TTLSeconds: ttl,
			Actions: []Action{{ControlPoint: "drift", Displacements: []float64{d}}}})
		dump("propose "+name, name, rec, err)
	}
	execute := func(name string) {
		rec, err := s.Execute(ctx, "alice", name)
		dump("execute "+name, name, rec, err)
	}
	cancel := func(name string) {
		rec, err := s.Cancel(ctx, "alice", name)
		dump("cancel "+name, name, rec, err)
	}

	dump("start", "", nil, nil)
	propose("s1", 0.01, 0)
	tick(time.Second)
	execute("s1")
	tick(time.Millisecond)
	propose("s2", 0.9, 0) // over the policy limit
	execute("s2")
	odd := `odd "name" <&> ü`
	propose(odd, 0.02, 0)
	tick(time.Microsecond)
	cancel(odd)
	cancel(odd) // idempotent: nothing published
	execute(odd)
	propose("s3", 0.03, 0)
	execute("s3")
	tick(time.Second)
	execute("s3")       // replay: counted, nothing published
	propose("s3", 9, 0) // replay of the proposal, whatever its body
	propose("boom", 0.25, 0)
	execute("boom")
	propose("short", 0.04, 5)
	tick(time.Second)
	dump(fmt.Sprint("requestTermination s1 ", s.Service().Lifetimes.RequestTermination("s1", 2*time.Second)), "s1", nil, nil)
	sweep := func() {
		ids := s.Service().Lifetimes.Sweep()
		sort.Strings(ids)
		dump(fmt.Sprint("sweep ", ids), "", nil, nil)
	}
	tick(3 * time.Second)
	sweep()
	tick(3 * time.Second)
	sweep()
	_, err := s.Get("short")
	dump("get short", "short", nil, err)
	propose("short", 0.05, 0) // the name is free again: a new transaction
	tick(2 * time.Hour)
	sweep()

	const golden = "testdata/sde-script.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("script output differs from %s:\n%s", golden, got)
	}
}
