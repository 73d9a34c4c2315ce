package control

import (
	"fmt"
	"sync"
	"time"

	"neesgrid/internal/structural"
)

// Rig is a one-DOF physical-substructure emulation: an actuator pushing a
// specimen, guarded by an interlock. It satisfies structural.Substructure,
// which is exactly how the MS-PSDS method sees a physical test — and what
// lets the coordinator swap a numerical substructure for a rig without
// noticing (E3).
type Rig struct {
	name      string
	actuator  *Actuator
	interlock *Interlock
	// SettleDelay adds real wall-clock delay per Apply, emulating the
	// hydraulic settle time that stretched MOST to five hours. Zero for
	// tests and benches.
	SettleDelay time.Duration

	mu      sync.Mutex
	applied int
}

// NewRig assembles a rig.
func NewRig(name string, actuator *Actuator, interlock *Interlock) *Rig {
	if interlock == nil {
		interlock = &Interlock{}
	}
	return &Rig{name: name, actuator: actuator, interlock: interlock}
}

// Name identifies the rig.
func (r *Rig) Name() string { return r.name }

// NDOF is 1 for a single-actuator rig.
func (r *Rig) NDOF() int { return 1 }

// Interlock exposes the safety interlock.
func (r *Rig) Interlock() *Interlock { return r.interlock }

// Applied returns how many displacement commands the rig executed.
func (r *Rig) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// SimTime returns the actuator's accumulated simulated servo time (s).
func (r *Rig) SimTime() float64 { return r.actuator.SimTime() }

// Apply moves the actuator to d[0], waits out the settle delay, and returns
// the measured force. A tripped interlock fails every Apply until cleared.
func (r *Rig) Apply(d []float64) ([]float64, error) {
	if len(d) != 1 {
		return nil, fmt.Errorf("control: rig %s is single-DOF, got %d", r.name, len(d))
	}
	if reason := r.interlock.Tripped(); reason != "" {
		return nil, fmt.Errorf("control: rig %s: interlock tripped: %s", r.name, reason)
	}
	pos, err := r.actuator.Move(d[0])
	if err != nil {
		r.interlock.Trip(err.Error())
		return nil, fmt.Errorf("control: rig %s: %w", r.name, err)
	}
	if r.SettleDelay > 0 {
		time.Sleep(r.SettleDelay)
	}
	force := r.actuator.Force()
	if err := r.interlock.Check(pos, force); err != nil {
		return nil, fmt.Errorf("control: rig %s: %w", r.name, err)
	}
	r.mu.Lock()
	r.applied++
	r.mu.Unlock()
	return []float64{force}, nil
}

// Reset re-zeros the rig; it does not clear a tripped interlock (that is a
// deliberate human action).
func (r *Rig) Reset() error {
	r.actuator.Reset()
	return nil
}

var _ structural.Substructure = (*Rig)(nil)

// NewColumnRig builds the standard MOST-style column rig: a bilinear steel
// column specimen behind a servo actuator. k, fy, hardening describe the
// column; cfg the actuator.
func NewColumnRig(name string, cfg ActuatorConfig, k, fy, hardening float64) *Rig {
	var specimen structural.Element
	if fy > 0 {
		specimen = structural.NewBilinear(k, fy, hardening)
	} else {
		specimen = structural.NewLinearElastic(k)
	}
	il := &Interlock{
		MaxDisplacement: cfg.Stroke,
		MaxForce:        0, // force trip configured by the site when needed
	}
	return NewRig(name, NewActuator(cfg, specimen), il)
}
