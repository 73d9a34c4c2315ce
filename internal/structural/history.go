package structural

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// History accumulates the per-step response of a run: the raw material for
// the Fig. 8 data viewers (time histories and hysteresis plots).
type History struct {
	NDOF   int
	States []State
}

// NewHistory returns an empty history for an n-DOF model, pre-sizing for
// steps entries.
func NewHistory(n, steps int) *History {
	return &History{NDOF: n, States: make([]State, 0, steps+1)}
}

// Record appends a state (already deep-copied by the integrators).
func (h *History) Record(s State) { h.States = append(h.States, s) }

// Len returns the number of recorded states.
func (h *History) Len() int { return len(h.States) }

// PeakDisplacement returns the maximum |d| seen at a DOF.
func (h *History) PeakDisplacement(dof int) float64 {
	peak := 0.0
	for _, s := range h.States {
		if v := s.D[dof]; v > peak {
			peak = v
		} else if -v > peak {
			peak = -v
		}
	}
	return peak
}

// PeakForce returns the maximum |f| seen at a DOF.
func (h *History) PeakForce(dof int) float64 {
	peak := 0.0
	for _, s := range h.States {
		if v := s.F[dof]; v > peak {
			peak = v
		} else if -v > peak {
			peak = -v
		}
	}
	return peak
}

// HystereticEnergy returns the energy dissipated at a DOF, computed as the
// trapezoidal work integral ∮ f·dd over the recorded loop. For a purely
// linear elastic response that returns to the origin this is ~0; hysteretic
// elements dissipate positive energy — a property test target.
func (h *History) HystereticEnergy(dof int) float64 {
	e := 0.0
	for i := 1; i < len(h.States); i++ {
		dd := h.States[i].D[dof] - h.States[i-1].D[dof]
		fm := (h.States[i].F[dof] + h.States[i-1].F[dof]) / 2
		e += fm * dd
	}
	return e
}

// WriteCSV emits step,t,d0..dN,f0..fN rows — the series behind the Fig. 8
// time-history and hysteresis viewers.
func (h *History) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := []string{"step", "t"}
	for i := 0; i < h.NDOF; i++ {
		head = append(head, fmt.Sprintf("d%d", i))
	}
	for i := 0; i < h.NDOF; i++ {
		head = append(head, fmt.Sprintf("f%d", i))
	}
	if err := cw.Write(head); err != nil {
		return err
	}
	row := make([]string, 0, len(head))
	for _, s := range h.States {
		row = row[:0]
		row = append(row, strconv.Itoa(s.Step), strconv.FormatFloat(s.T, 'g', -1, 64))
		for _, v := range s.D {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		for _, v := range s.F {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunOptions configures a local (non-distributed) pseudo-dynamic run.
type RunOptions struct {
	Dt    float64
	Steps int
	// Ground is the ground-acceleration record üg(step); step 0 is the
	// initial condition.
	Ground func(step int) float64
	// OnStep, if non-nil, observes each committed state.
	OnStep func(State)
}

// Run integrates the system through opts.Steps steps and returns the full
// history. This is the single-process reference path; the distributed MOST
// run replaces sys.R with NTCP transactions but reuses the same integrators,
// so local and distributed trajectories can be compared bit-for-bit when the
// rigs are noise-free.
func Run(sys *System, in Integrator, opts RunOptions) (*History, error) {
	if opts.Dt <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("structural: run needs positive dt and steps")
	}
	if opts.Ground == nil {
		return nil, fmt.Errorf("structural: run needs a ground motion")
	}
	n := sys.M.Rows
	iota := Ones(n)
	d0 := make([]float64, n)
	v0 := make([]float64, n)
	st, err := in.Init(sys, opts.Dt, d0, v0, GroundLoad(sys.M, iota, opts.Ground(0)))
	if err != nil {
		return nil, err
	}
	h := NewHistory(n, opts.Steps)
	h.Record(st)
	if opts.OnStep != nil {
		opts.OnStep(st)
	}
	for s := 1; s <= opts.Steps; s++ {
		st, err = in.Step(GroundLoad(sys.M, iota, opts.Ground(s)))
		if err != nil {
			return h, fmt.Errorf("structural: step %d: %w", s, err)
		}
		h.Record(st)
		if opts.OnStep != nil {
			opts.OnStep(st)
		}
	}
	return h, nil
}
