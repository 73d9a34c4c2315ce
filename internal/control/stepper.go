package control

import (
	"fmt"
	"math"
	"sync"

	"neesgrid/internal/structural"
)

// StepperBeam emulates the Mini-MOST tabletop rig (§3.5): a 1 m × 10 cm
// steel beam positioned by a stepper motor, instrumented with a strain
// gauge, an LVDT for position, and a load cell for force. Stepper motion is
// quantized to whole motor steps, which is the rig's dominant error source.
type StepperBeam struct {
	name string
	// StepSize is the displacement of one motor step (m).
	StepSize float64
	// MaxSteps bounds travel in motor steps from zero.
	MaxSteps int
	// GaugeFactor converts displacement to strain-gauge reading
	// (dimensionless strain per meter of tip deflection).
	GaugeFactor float64

	beam structural.Element

	mu    sync.Mutex
	steps int // current motor position in steps
	moves int
}

// NewStepperBeam builds the Mini-MOST rig from the beam stiffness k (N/m).
func NewStepperBeam(name string, k, stepSize float64, maxSteps int) *StepperBeam {
	if stepSize <= 0 || maxSteps <= 0 {
		panic(fmt.Sprintf("control: invalid stepper params step=%g max=%d", stepSize, maxSteps))
	}
	return &StepperBeam{
		name:        name,
		StepSize:    stepSize,
		MaxSteps:    maxSteps,
		GaugeFactor: 1.5e-2,
		beam:        structural.NewLinearElastic(k),
	}
}

// Name identifies the rig.
func (s *StepperBeam) Name() string { return s.name }

// NDOF is 1.
func (s *StepperBeam) NDOF() int { return 1 }

// Apply moves the stepper to the nearest whole step of d[0] and returns the
// measured force.
func (s *StepperBeam) Apply(d []float64) ([]float64, error) {
	if len(d) != 1 {
		return nil, fmt.Errorf("control: stepper %s is single-DOF", s.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	target := int(math.Round(d[0] / s.StepSize))
	if target > s.MaxSteps || target < -s.MaxSteps {
		return nil, fmt.Errorf("control: stepper %s travel limit: %d steps > %d", s.name, target, s.MaxSteps)
	}
	s.steps = target
	s.moves++
	pos := float64(s.steps) * s.StepSize
	return []float64{s.beam.Restore(pos)}, nil
}

// Position returns the quantized position (m).
func (s *StepperBeam) Position() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.steps) * s.StepSize
}

// Strain returns the strain-gauge reading at the current position.
func (s *StepperBeam) Strain() float64 {
	return s.Position() * s.GaugeFactor
}

// Reset re-zeros the rig.
func (s *StepperBeam) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps = 0
	s.beam.Reset()
	return nil
}

var _ structural.Substructure = (*StepperBeam)(nil)

// FirstOrderKinetic is the hardware-free beam stand-in of §3.5: "a program
// where the beam is replaced by a first-order kinetic simulator … applicable
// for testing when the actual hardware is not available". Each Apply
// advances the first-order response pos' = (target − pos)/τ over a fixed
// simulated dwell, so a too-short dwell visibly undershoots — the behaviour
// test code exercises before touching the rig.
type FirstOrderKinetic struct {
	name string
	// K is the beam stiffness (N/m).
	K float64
	// Tau is the kinetic time constant (s).
	Tau float64
	// Dwell is the simulated time allowed per Apply (s).
	Dwell float64

	mu  sync.Mutex
	pos float64
}

// NewFirstOrderKinetic builds the simulator.
func NewFirstOrderKinetic(name string, k, tau, dwell float64) *FirstOrderKinetic {
	if k <= 0 || tau <= 0 || dwell <= 0 {
		panic(fmt.Sprintf("control: invalid kinetic params k=%g tau=%g dwell=%g", k, tau, dwell))
	}
	return &FirstOrderKinetic{name: name, K: k, Tau: tau, Dwell: dwell}
}

// Name identifies the simulator.
func (f *FirstOrderKinetic) Name() string { return f.name }

// NDOF is 1.
func (f *FirstOrderKinetic) NDOF() int { return 1 }

// Apply relaxes toward the target for one dwell and returns the spring
// force at the reached position.
func (f *FirstOrderKinetic) Apply(d []float64) ([]float64, error) {
	if len(d) != 1 {
		return nil, fmt.Errorf("control: kinetic %s is single-DOF", f.name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos += (d[0] - f.pos) * (1 - math.Exp(-f.Dwell/f.Tau))
	return []float64{f.K * f.pos}, nil
}

// Reset re-zeros the simulator.
func (f *FirstOrderKinetic) Reset() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos = 0
	return nil
}

var _ structural.Substructure = (*FirstOrderKinetic)(nil)
