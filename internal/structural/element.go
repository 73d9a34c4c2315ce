package structural

import (
	"fmt"
)

// Element models the restoring-force behaviour of one structural component
// (a column, a beam, a brace) in a single degree of freedom. In a
// pseudo-dynamic test the integrator imposes a displacement and the element
// (physical or numerical) reports the restoring force it develops; elements
// therefore expose exactly that contract.
//
// Elements are stateful: hysteretic models remember their loading history.
// Restore(d) advances the state to displacement d and returns the force.
// Peek(d) returns the force the element would develop at d without
// committing the state change (used for trial/corrector integrator steps and
// for proposal-time policy checks).
type Element interface {
	// Restore advances the element to displacement d (meters) and returns
	// the restoring force (newtons).
	Restore(d float64) float64
	// Peek returns the force at displacement d without mutating state.
	Peek(d float64) float64
	// Stiffness returns the current tangent stiffness (N/m).
	Stiffness() float64
	// InitialStiffness returns the elastic stiffness (N/m), used to build
	// the initial-stiffness matrix required by the α-OS integrator.
	InitialStiffness() float64
	// Reset returns the element to its virgin state.
	Reset()
}

// LinearElastic is a spring with constant stiffness K. The numerical middle
// frame of MOST was modelled as linear elastic.
type LinearElastic struct {
	K float64 // stiffness, N/m
	d float64
}

// NewLinearElastic returns a linear spring with stiffness k (N/m).
func NewLinearElastic(k float64) *LinearElastic {
	if k <= 0 {
		panic(fmt.Sprintf("structural: non-positive stiffness %g", k))
	}
	return &LinearElastic{K: k}
}

func (e *LinearElastic) Restore(d float64) float64 { e.d = d; return e.K * d }
func (e *LinearElastic) Peek(d float64) float64    { return e.K * d }
func (e *LinearElastic) Stiffness() float64        { return e.K }
func (e *LinearElastic) InitialStiffness() float64 { return e.K }
func (e *LinearElastic) Reset()                    { e.d = 0 }

// Bilinear is an elastic–plastic element with kinematic hardening: elastic
// stiffness K0 up to yield force Fy, post-yield stiffness Alpha*K0. It
// produces the parallelogram hysteresis loops characteristic of steel
// columns like the MOST specimens (and of the Fig. 8 hysteresis viewers).
type Bilinear struct {
	K0    float64 // elastic stiffness, N/m
	Fy    float64 // yield force, N
	Alpha float64 // hardening ratio (0..1)

	d  float64 // current displacement
	f  float64 // current force
	kt float64 // current tangent stiffness
}

// NewBilinear constructs a bilinear hysteretic element.
func NewBilinear(k0, fy, alpha float64) *Bilinear {
	if k0 <= 0 || fy <= 0 || alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("structural: invalid bilinear params k0=%g fy=%g alpha=%g", k0, fy, alpha))
	}
	return &Bilinear{K0: k0, Fy: fy, Alpha: alpha, kt: k0}
}

// step computes the next (force, tangent) from state (d0, f0) to displacement d.
func (e *Bilinear) step(d0, f0, d float64) (f, kt float64) {
	// Elastic trial.
	df := e.K0 * (d - d0)
	ft := f0 + df
	// Yield surface translated by kinematic hardening: |f - alpha*K0*d| <= (1-alpha)*Fy.
	back := e.Alpha * e.K0 * d
	bound := (1 - e.Alpha) * e.Fy
	switch {
	case ft-back > bound:
		return back + bound, e.Alpha * e.K0
	case ft-back < -bound:
		return back - bound, e.Alpha * e.K0
	default:
		return ft, e.K0
	}
}

func (e *Bilinear) Restore(d float64) float64 {
	f, kt := e.step(e.d, e.f, d)
	e.d, e.f, e.kt = d, f, kt
	return f
}

func (e *Bilinear) Peek(d float64) float64 {
	f, _ := e.step(e.d, e.f, d)
	return f
}

func (e *Bilinear) Stiffness() float64        { return e.kt }
func (e *Bilinear) InitialStiffness() float64 { return e.K0 }
func (e *Bilinear) Reset()                    { e.d, e.f, e.kt = 0, 0, e.K0 }

// CantileverColumnStiffness returns the lateral stiffness of a cantilever
// column of Young's modulus E (Pa), second moment of area I (m⁴), and
// height L (m): 3EI/L³. The MOST left and right columns were cantilevers
// (beam-column pin connection), so this is the elastic stiffness used for
// their emulated specimens.
func CantileverColumnStiffness(e, i, l float64) float64 {
	return 3 * e * i / (l * l * l)
}
