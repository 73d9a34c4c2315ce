package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNilPolicyAllowsEverything(t *testing.T) {
	var p *SitePolicy
	if err := p.Check("anyone", []Action{{ControlPoint: "x", Displacements: []float64{1e9}}}, nil); err != nil {
		t.Fatal(err)
	}
}

// NaN fails every limit comparison, so it used to pass every limit.
func TestPolicyRejectsNonFiniteDisplacements(t *testing.T) {
	limited := &SitePolicy{PointLimits: map[string]Limits{
		"drift": {MaxDisplacement: 0.05, MaxStep: 0.01, MaxForceEstimate: 1e3, StiffnessEst: 1e4},
	}}
	last := map[string][]float64{"drift": {0}}
	for _, p := range []*SitePolicy{limited, {}} {
		for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := p.Check("a", []Action{{ControlPoint: "drift", Displacements: []float64{0, d}}}, last)
			if v, ok := err.(*PolicyViolation); !ok || v.Point != "drift" {
				t.Fatalf("displacement %g under %+v: err = %v", d, p.PointLimits, err)
			}
		}
	}
}

func TestUnknownControlPointRules(t *testing.T) {
	// Non-empty limit map: unknown points are rejected.
	p := &SitePolicy{PointLimits: map[string]Limits{"drift": {}}}
	if err := p.Check("a", []Action{{ControlPoint: "other", Displacements: []float64{0}}}, nil); err == nil {
		t.Fatal("unknown point accepted under a restrictive policy")
	}
	// Empty limit map: any point passes.
	open := &SitePolicy{}
	if err := open.Check("a", []Action{{ControlPoint: "other", Displacements: []float64{0}}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyViolationError(t *testing.T) {
	v := &PolicyViolation{Point: "drift", Reason: "too big"}
	if v.Error() != "ntcp policy: drift: too big" {
		t.Fatalf("message = %q", v.Error())
	}
}

// Property: the displacement screen accepts exactly |d| <= limit.
func TestMaxDisplacementExactBoundaryProperty(t *testing.T) {
	p := &SitePolicy{PointLimits: map[string]Limits{"cp": {MaxDisplacement: 1.0}}}
	f := func(raw float64) bool {
		d := math.Mod(raw, 4) // keep finite and near the boundary
		if math.IsNaN(d) {
			return true
		}
		err := p.Check("a", []Action{{ControlPoint: "cp", Displacements: []float64{d}}}, nil)
		violates := math.Abs(d) > 1.0
		return (err != nil) == violates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a step accepted by the MaxStep screen never moves a control
// point more than the limit from its last executed position.
func TestMaxStepScreenProperty(t *testing.T) {
	const limit = 0.05
	p := &SitePolicy{PointLimits: map[string]Limits{"cp": {MaxStep: limit}}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos := 0.0
		last := map[string][]float64{"cp": {pos}}
		for i := 0; i < 50; i++ {
			target := pos + rng.NormFloat64()*limit
			err := p.Check("a", []Action{{ControlPoint: "cp", Displacements: []float64{target}}}, last)
			if err == nil {
				if math.Abs(target-pos) > limit+1e-12 {
					return false // accepted an oversized step
				}
				pos = target
				last["cp"][0] = pos
			} else if math.Abs(target-pos) <= limit {
				return false // rejected a legal step
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: force screening is equivalent to displacement screening at
// d = Fmax/K.
func TestForceEstimateEquivalenceProperty(t *testing.T) {
	const k, fmax = 2000.0, 100.0 // equivalent displacement limit: 0.05
	p := &SitePolicy{PointLimits: map[string]Limits{"cp": {
		MaxForceEstimate: fmax, StiffnessEst: k,
	}}}
	f := func(raw float64) bool {
		d := math.Mod(raw, 0.2)
		if math.IsNaN(d) {
			return true
		}
		err := p.Check("a", []Action{{ControlPoint: "cp", Displacements: []float64{d}}}, nil)
		violates := math.Abs(d)*k > fmax
		return (err != nil) == violates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDOFActionsScreenedPerDOF(t *testing.T) {
	p := &SitePolicy{PointLimits: map[string]Limits{"cp": {MaxDisplacement: 0.1}}}
	// Only DOF 3 violates.
	err := p.Check("a", []Action{{
		ControlPoint:  "cp",
		Displacements: []float64{0.05, -0.05, 0.0, 0.2},
	}}, nil)
	if err == nil {
		t.Fatal("violating DOF slipped through")
	}
}

// callCounter is a plugin that accepts and executes everything, counting
// each call it gets.
type callCounter struct{ validates, executes atomic.Int64 }

func (p *callCounter) Validate(context.Context, []Action) error {
	p.validates.Add(1)
	return nil
}

func (p *callCounter) Execute(_ context.Context, actions []Action) ([]Result, error) {
	p.executes.Add(1)
	results := make([]Result, len(actions))
	for i, a := range actions {
		results[i] = Result{ControlPoint: a.ControlPoint, Displacements: a.Displacements, Forces: []float64{0}}
	}
	return results, nil
}

// A server built with no policy still refuses a non-finite displacement, as
// a policy violation, before its plugin hears of it: NaN used to pass the
// nil policy, and the plugin executed it.
func TestPolicylessServerRefusesNonFinite(t *testing.T) {
	ctx := context.Background()
	plug := &callCounter{}
	srv := NewServer(plug, nil, ServerOptions{})
	for i, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprintf("nonfinite-%d", i)
		rec, err := srv.Propose(ctx, "me", &Proposal{Name: name,
			Actions: []Action{{ControlPoint: "drift", Displacements: []float64{0, d}}}})
		if err != nil {
			t.Fatal(err)
		}
		want := (&PolicyViolation{Point: "drift", Reason: fmt.Sprintf("dof 1 displacement %g is not finite", d)}).Error()
		if rec.State != StateRejected || rec.Error != want {
			t.Fatalf("displacement %g: state %s, error %q; want rejected with %q", d, rec.State, rec.Error, want)
		}
		if rec, err := srv.Execute(ctx, "me", name); err == nil && rec.State == StateExecuted {
			t.Fatalf("displacement %g: a rejected proposal executed", d)
		}
	}
	if v, e := plug.validates.Load(), plug.executes.Load(); v != 0 || e != 0 {
		t.Fatalf("the plugin was called: %d validations, %d executions", v, e)
	}
}
