package core

import (
	"fmt"
	"math"
)

// Limits bounds what a site will allow at one control point. Facility
// managers "want to retain some control over what commands are acceptable
// (e.g., to set limits on the amount of force that can be applied on the
// local specimen)" — Limits is that control, enforced at proposal time so a
// violating request is rejected before anything moves.
type Limits struct {
	// MaxDisplacement is the largest |d| (meters) accepted per DOF;
	// 0 means unlimited.
	MaxDisplacement float64 `json:"max_displacement,omitempty"`
	// MaxStep is the largest displacement increment (meters) from the
	// last executed position per DOF; 0 means unlimited. Guards against a
	// coordinator bug slewing an actuator across its whole stroke in one
	// step.
	MaxStep float64 `json:"max_step,omitempty"`
	// MaxForceEstimate rejects proposals whose estimated reaction
	// |K·d| (newtons) exceeds the specimen rating; requires StiffnessEst.
	// 0 means unlimited.
	MaxForceEstimate float64 `json:"max_force_estimate,omitempty"`
	// StiffnessEst is the site's estimate of specimen stiffness (N/m)
	// used for force screening.
	StiffnessEst float64 `json:"stiffness_estimate,omitempty"`
}

// SitePolicy is the per-site proposal screen: per-control-point limits plus
// an optional allow list of client identities (over and above gridmap
// authorization).
type SitePolicy struct {
	// PointLimits maps control point name → limits. Proposals naming
	// points absent from a non-empty map are rejected.
	PointLimits map[string]Limits
	// AllowedClients, when non-empty, restricts which Grid identities may
	// propose transactions.
	AllowedClients map[string]bool
}

// PolicyViolation describes a rejected proposal.
type PolicyViolation struct {
	Point  string
	Reason string
}

func (v *PolicyViolation) Error() string {
	return fmt.Sprintf("ntcp policy: %s: %s", v.Point, v.Reason)
}

// Check screens a proposal for client identity and action limits. last maps
// control point → last executed displacements (nil when unknown), enabling
// the MaxStep screen.
func (p *SitePolicy) Check(client string, actions []Action, last map[string][]float64) error {
	if p == nil {
		return nil
	}
	if len(p.AllowedClients) > 0 && !p.AllowedClients[client] {
		return &PolicyViolation{Point: "*", Reason: fmt.Sprintf("client %q not allowed", client)}
	}
	for _, a := range actions {
		// NaN passes every limit comparison below, so a non-finite
		// displacement is refused before them, limits or not.
		for dof, d := range a.Displacements {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return &PolicyViolation{Point: a.ControlPoint,
					Reason: fmt.Sprintf("dof %d displacement %g is not finite", dof, d)}
			}
		}
		lim, ok := p.PointLimits[a.ControlPoint]
		if !ok {
			if len(p.PointLimits) > 0 {
				return &PolicyViolation{Point: a.ControlPoint, Reason: "unknown control point"}
			}
			continue
		}
		for dof, d := range a.Displacements {
			if lim.MaxDisplacement > 0 && math.Abs(d) > lim.MaxDisplacement {
				return &PolicyViolation{Point: a.ControlPoint,
					Reason: fmt.Sprintf("dof %d displacement %g exceeds limit %g", dof, d, lim.MaxDisplacement)}
			}
			if lim.MaxForceEstimate > 0 && lim.StiffnessEst > 0 &&
				math.Abs(d)*lim.StiffnessEst > lim.MaxForceEstimate {
				return &PolicyViolation{Point: a.ControlPoint,
					Reason: fmt.Sprintf("dof %d estimated force %g exceeds limit %g",
						dof, math.Abs(d)*lim.StiffnessEst, lim.MaxForceEstimate)}
			}
			if lim.MaxStep > 0 && last != nil {
				if prev, ok := last[a.ControlPoint]; ok && dof < len(prev) {
					if step := math.Abs(d - prev[dof]); step > lim.MaxStep {
						return &PolicyViolation{Point: a.ControlPoint,
							Reason: fmt.Sprintf("dof %d step %g exceeds limit %g", dof, step, lim.MaxStep)}
					}
				}
			}
		}
	}
	return nil
}
