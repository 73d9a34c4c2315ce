// Package control emulates the laboratory control systems the MOST
// experiment drove through NTCP: servo-hydraulic actuators behind a
// Shore-Western-style TCP controller (UIUC), an xPC-target-style real-time
// loop (CU), and the stepper-motor tabletop rig of Mini-MOST. The paper's
// rigs are physical; these models keep the behaviours the protocol and the
// pseudo-dynamic algorithm interact with — commanded moves with finite
// slew rate and settle time, sensor noise, stroke/force interlocks, and an
// emergency stop.
package control

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"neesgrid/internal/structural"
)

// ActuatorConfig parameterizes one servo-hydraulic actuator channel.
type ActuatorConfig struct {
	// TimeConstant is the first-order servo lag (s): the actuator closes
	// the gap to its target as exp(-t/TimeConstant).
	TimeConstant float64
	// RateLimit caps actuator velocity (m/s). 0 = unlimited.
	RateLimit float64
	// Stroke is the maximum |position| (m). Commands beyond it error.
	Stroke float64
	// Tolerance is the settle band (m): Move returns once the position is
	// within Tolerance of the target.
	Tolerance float64
	// SettleTimeout is the maximum simulated settle time (s).
	SettleTimeout float64
	// InternalDt is the servo-loop integration step (s).
	InternalDt float64
	// PositionNoiseStd is the LVDT readback noise standard deviation (m).
	PositionNoiseStd float64
	// ForceNoiseStd is the load-cell noise standard deviation (N).
	ForceNoiseStd float64
	// Seed makes the sensor noise deterministic.
	Seed int64
}

// DefaultActuator returns a configuration typical of a structural-lab
// servo-hydraulic actuator at half scale.
func DefaultActuator() ActuatorConfig {
	return ActuatorConfig{
		TimeConstant:     0.02,
		RateLimit:        0.25,
		Stroke:           0.15,
		Tolerance:        1e-5,
		SettleTimeout:    10,
		InternalDt:       1e-3,
		PositionNoiseStd: 2e-6,
		ForceNoiseStd:    5.0,
		Seed:             1,
	}
}

func (c *ActuatorConfig) fill() {
	if c.TimeConstant <= 0 {
		c.TimeConstant = 0.02
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-5
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 10
	}
	if c.InternalDt <= 0 {
		c.InternalDt = 1e-3
	}
}

// ErrStroke is returned for commands beyond the actuator stroke.
var ErrStroke = fmt.Errorf("control: command exceeds actuator stroke")

// ErrSettleTimeout is returned when the servo cannot settle in time.
var ErrSettleTimeout = fmt.Errorf("control: actuator failed to settle")

// Actuator is a one-channel servo model attached to a specimen element: it
// integrates first-order servo dynamics toward a commanded position in
// simulated time and reads back noisy position and force.
type Actuator struct {
	cfg      ActuatorConfig
	specimen structural.Element

	mu       sync.Mutex
	pos      float64
	simTime  float64 // accumulated simulated seconds
	rng      *rand.Rand
	lastTrip string
}

// NewActuator attaches an actuator model to a specimen element (the
// emulated steel column).
func NewActuator(cfg ActuatorConfig, specimen structural.Element) *Actuator {
	cfg.fill()
	return &Actuator{cfg: cfg, specimen: specimen, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Move commands the actuator to target and integrates until settled,
// returning the achieved position. Simulated time advances; wall time does
// not (the harness adds wall-clock settle delay separately when emulating
// the multi-hour experiment).
func (a *Actuator) Move(target float64) (float64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// A non-finite target is outside every stroke; NaN fails every
	// comparison below, so it is refused explicitly.
	if math.IsNaN(target) || math.IsInf(target, 0) || a.cfg.Stroke > 0 && math.Abs(target) > a.cfg.Stroke {
		return a.pos, fmt.Errorf("%w: |%g| > %g", ErrStroke, target, a.cfg.Stroke)
	}
	dt := a.cfg.InternalDt
	deadline := a.simTime + a.cfg.SettleTimeout
	for math.Abs(a.pos-target) > a.cfg.Tolerance {
		if a.simTime >= deadline {
			return a.pos, fmt.Errorf("%w: at %g, target %g", ErrSettleTimeout, a.pos, target)
		}
		v := (target - a.pos) / a.cfg.TimeConstant
		if a.cfg.RateLimit > 0 {
			if v > a.cfg.RateLimit {
				v = a.cfg.RateLimit
			} else if v < -a.cfg.RateLimit {
				v = -a.cfg.RateLimit
			}
		}
		a.pos += v * dt
		a.simTime += dt
	}
	return a.pos, nil
}

// SimTime returns accumulated simulated servo time (s) — the quantity that
// made the real MOST run take five hours.
func (a *Actuator) SimTime() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.simTime
}

// Position returns the noisy LVDT reading.
func (a *Actuator) Position() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pos + a.rng.NormFloat64()*a.cfg.PositionNoiseStd
}

// Force drives the specimen model to the current position and returns the
// noisy load-cell reading.
func (a *Actuator) Force() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	f := a.specimen.Restore(a.pos)
	return f + a.rng.NormFloat64()*a.cfg.ForceNoiseStd
}

// Reset re-zeros the actuator and its specimen.
func (a *Actuator) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pos = 0
	a.simTime = 0
	a.specimen.Reset()
}

// Interlock is a site-safety trip: limits monitored on every measurement,
// tripping an emergency stop when exceeded — the "engineers nearby prepared
// to turn it off" of §4, in software.
type Interlock struct {
	// MaxDisplacement trips when |position| exceeds it (m). 0 = disabled.
	MaxDisplacement float64
	// MaxForce trips when |force| exceeds it (N). 0 = disabled.
	MaxForce float64

	mu      sync.Mutex
	tripped string
}

// Check examines a measurement, tripping if limits are exceeded. Once
// tripped it stays tripped until Clear.
func (il *Interlock) Check(pos, force float64) error {
	il.mu.Lock()
	defer il.mu.Unlock()
	if il.tripped != "" {
		return fmt.Errorf("control: interlock tripped: %s", il.tripped)
	}
	if il.MaxDisplacement > 0 && math.Abs(pos) > il.MaxDisplacement {
		il.tripped = fmt.Sprintf("displacement %g exceeds %g", pos, il.MaxDisplacement)
		return fmt.Errorf("control: interlock tripped: %s", il.tripped)
	}
	if il.MaxForce > 0 && math.Abs(force) > il.MaxForce {
		il.tripped = fmt.Sprintf("force %g exceeds %g", force, il.MaxForce)
		return fmt.Errorf("control: interlock tripped: %s", il.tripped)
	}
	return nil
}

// Trip forces an emergency stop with a reason.
func (il *Interlock) Trip(reason string) {
	il.mu.Lock()
	defer il.mu.Unlock()
	if il.tripped == "" {
		il.tripped = reason
	}
}

// Tripped returns the trip reason, empty if armed.
func (il *Interlock) Tripped() string {
	il.mu.Lock()
	defer il.mu.Unlock()
	return il.tripped
}

// Clear re-arms the interlock (a human action at the site).
func (il *Interlock) Clear() {
	il.mu.Lock()
	defer il.mu.Unlock()
	il.tripped = ""
}
