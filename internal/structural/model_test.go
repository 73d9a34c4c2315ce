package structural

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestMOSTConfigPlausible(t *testing.T) {
	c := MOSTConfig()
	if c.Steps != 1500 || c.Dt != 0.01 {
		t.Fatalf("MOST grid = %d steps at %g s; paper specifies 1500 at 0.01", c.Steps, c.Dt)
	}
	period := c.Period()
	if period < 0.2 || period > 1.0 {
		t.Fatalf("fundamental period %g s implausible for a single-story steel frame", period)
	}
	// Explicit integration must be comfortably stable on the MOST grid.
	limit := StableDt(Diagonal([]float64{c.Mass}), Diagonal([]float64{c.TotalK()}))
	if c.Dt > limit/2 {
		t.Fatalf("dt %g too close to stability limit %g", c.Dt, limit)
	}
}

func TestMOSTSubstructures(t *testing.T) {
	c := MOSTConfig()
	subs := c.Substructures()
	if len(subs) != 3 {
		t.Fatalf("MOST has 3 substructures, got %d", len(subs))
	}
	names := []string{subs[0].Name(), subs[1].Name(), subs[2].Name()}
	want := []string{"left-column", "middle-frame", "right-column"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("substructure %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestMiniMOSTHasNoRightColumn(t *testing.T) {
	c := MiniMOSTConfig()
	subs := c.Substructures()
	if len(subs) != 2 {
		t.Fatalf("Mini-MOST should have 2 substructures (single beam), got %d", len(subs))
	}
	for _, s := range subs {
		if s.Name() == "right-column" {
			t.Fatal("Mini-MOST must not have a right column")
		}
	}
}

func sineGround(amp, freqHz, dt float64) func(int) float64 {
	w := 2 * math.Pi * freqHz
	return func(step int) float64 { return amp * math.Sin(w*float64(step)*dt) }
}

func TestMOSTRunCompletesAndYields(t *testing.T) {
	c := MOSTConfig()
	a, err := c.Assembly()
	if err != nil {
		t.Fatal(err)
	}
	sys := c.System(a)
	// Drive near resonance at 0.4 g to guarantee yielding.
	h, err := Run(sys, NewExplicitNewmark(), RunOptions{
		Dt:     c.Dt,
		Steps:  c.Steps,
		Ground: sineGround(0.4*9.81, 1/c.Period(), c.Dt),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != c.Steps+1 {
		t.Fatalf("history has %d states, want %d", h.Len(), c.Steps+1)
	}
	dy := c.LeftFy / c.LeftK
	if peak := h.PeakDisplacement(0); peak < dy {
		t.Fatalf("peak drift %g below yield displacement %g — model never yields", peak, dy)
	}
	if e := h.HystereticEnergy(0); e <= 0 {
		t.Fatalf("hysteretic energy %g, want positive (yielding columns dissipate)", e)
	}
	if peak := h.PeakDisplacement(0); peak > 0.5 {
		t.Fatalf("peak drift %g m is unphysical — model unstable", peak)
	}
}

func TestMOSTAlphaOSMatchesNewmark(t *testing.T) {
	// For the elastic (low-amplitude) regime, alpha-OS and explicit Newmark
	// must agree closely — the cross-integrator sanity check.
	c := MOSTConfig()
	run := func(in Integrator) *History {
		a, err := c.Assembly()
		if err != nil {
			t.Fatal(err)
		}
		sys := c.System(a)
		h, err := Run(sys, in, RunOptions{
			Dt:     c.Dt,
			Steps:  500,
			Ground: sineGround(0.02*9.81, 1.3, c.Dt),
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	aos, err := NewAlphaOS(-0.05)
	if err != nil {
		t.Fatal(err)
	}
	h1 := run(NewExplicitNewmark())
	h2 := run(aos)
	peak := h1.PeakDisplacement(0)
	for i := range h1.States {
		diff := math.Abs(h1.States[i].D[0] - h2.States[i].D[0])
		if diff > 0.05*peak+1e-9 {
			t.Fatalf("step %d: integrators diverge by %g (peak %g)", i, diff, peak)
		}
	}
}

func TestRunValidation(t *testing.T) {
	c := MiniMOSTConfig()
	a, _ := c.Assembly()
	sys := c.System(a)
	if _, err := Run(sys, NewExplicitNewmark(), RunOptions{Dt: 0, Steps: 10, Ground: func(int) float64 { return 0 }}); err == nil {
		t.Fatal("zero dt should fail")
	}
	if _, err := Run(sys, NewExplicitNewmark(), RunOptions{Dt: 0.01, Steps: 10}); err == nil {
		t.Fatal("missing ground motion should fail")
	}
}

func TestRunOnStepCallback(t *testing.T) {
	c := MiniMOSTConfig()
	a, _ := c.Assembly()
	sys := c.System(a)
	var calls int
	_, err := Run(sys, NewExplicitNewmark(), RunOptions{
		Dt: 0.01, Steps: 10,
		Ground: func(int) float64 { return 0 },
		OnStep: func(State) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 11 {
		t.Fatalf("OnStep called %d times, want 11", calls)
	}
}

func TestHistoryCSV(t *testing.T) {
	c := MiniMOSTConfig()
	a, _ := c.Assembly()
	sys := c.System(a)
	h, err := Run(sys, NewExplicitNewmark(), RunOptions{
		Dt: 0.01, Steps: 5, Ground: sineGround(1, 2, 0.01),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 states
		t.Fatalf("CSV has %d lines, want 7", len(lines))
	}
	if !strings.HasPrefix(lines[0], "step,t,d0,f0") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestHistoryAccessors(t *testing.T) {
	h := NewHistory(1, 2)
	h.Record(State{Step: 0, T: 0, D: []float64{1}, V: []float64{0}, A: []float64{0}, F: []float64{-3}})
	h.Record(State{Step: 1, T: 0.01, D: []float64{-2}, V: []float64{0}, A: []float64{0}, F: []float64{5}})
	if got := h.PeakDisplacement(0); got != 2 {
		t.Fatalf("PeakDisplacement = %g", got)
	}
	if got := h.PeakForce(0); got != 5 {
		t.Fatalf("PeakForce = %g", got)
	}
	d := h.Displacement(0)
	if d[0] != 1 || d[1] != -2 {
		t.Fatalf("Displacement = %v", d)
	}
	f := h.Force(0)
	if f[0] != -3 || f[1] != 5 {
		t.Fatalf("Force = %v", f)
	}
	ts := h.Times()
	if ts[1] != 0.01 {
		t.Fatalf("Times = %v", ts)
	}
}

// Displacement returns the displacement time series of one DOF.
func (h *History) Displacement(dof int) []float64 {
	out := make([]float64, len(h.States))
	for i, s := range h.States {
		out[i] = s.D[dof]
	}
	return out
}

// Force returns the restoring-force time series of one DOF.
func (h *History) Force(dof int) []float64 {
	out := make([]float64, len(h.States))
	for i, s := range h.States {
		out[i] = s.F[dof]
	}
	return out
}

// Times returns the time axis.
func (h *History) Times() []float64 {
	out := make([]float64, len(h.States))
	for i, s := range h.States {
		out[i] = s.T
	}
	return out
}
