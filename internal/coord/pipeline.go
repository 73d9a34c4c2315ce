package coord

import (
	"math"

	"neesgrid/internal/core"
)

// defaultPipelineTolerance is the per-DOF speculation tolerance when the
// config leaves it zero: 1 mm, on the order of hydraulic actuator
// positioning accuracy, and comfortably above the ~|a|·dt² truncation
// error of the linear predictor at MOST's dt = 0.01 s (≈ 3e-4 m at 3 m/s²).
const defaultPipelineTolerance = 1e-3

// speculation is what a pipelined step leaves for the next restore call:
// the proposals for step that travelled with the previous step's executes.
// The zero value holds nothing.
type speculation struct {
	step int
	// predicted is the global displacement vector that was proposed.
	predicted []float64
	// proposals[i] and recs[i] are site i's speculative proposal and the
	// site's answer to it (nil where the propose faulted).
	proposals []*core.Proposal
	recs      []*core.Record
	// lastD is the previous step's requested displacement — the d_{N-1} of
	// the linear predictor.
	lastD []float64
}

// usableFor reports whether the speculation can stand in for step's propose
// barrier at the actual displacement d: it targets step, every site
// accepted it, and d is within tol of the prediction on every DOF. A
// negative tolerance never holds — the knob that forces a rollback every
// step for determinism debugging.
func (s *speculation) usableFor(step int, d []float64, tol float64) bool {
	if s.proposals == nil || s.step != step || tol < 0 {
		return false
	}
	for _, rec := range s.recs {
		if rec == nil || rec.State != core.StateAccepted {
			return false
		}
	}
	for g, v := range d {
		if math.Abs(s.predicted[g]-v) > tol {
			return false
		}
	}
	return true
}

// predict extrapolates the displacement the integrator will request next:
// d̂_{N+1} = 2·d_N − d_{N-1}, degrading to constant extrapolation before
// two steps of history exist (lastD nil).
func predict(d, lastD []float64) []float64 {
	p := make([]float64, len(d))
	if lastD == nil {
		copy(p, d)
		return p
	}
	for g := range d {
		p[g] = 2*d[g] - lastD[g]
	}
	return p
}
