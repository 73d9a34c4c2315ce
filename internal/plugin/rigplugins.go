package plugin

import (
	"context"
	"fmt"
	"math"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
)

// ShoreWesternPlugin maps NTCP actions onto the UIUC Shore-Western control
// system over its TCP protocol (Fig. 9, left site).
type ShoreWesternPlugin struct {
	Point string
	// Client talks to the controller; reconnects internally. Each exchange
	// is bounded by the execution context.
	Client *control.ShoreWesternClient
	// MaxDisplacement lets the plugin itself veto oversized commands
	// before they reach the controller (a second, site-side guard beyond
	// SitePolicy). 0 disables.
	MaxDisplacement float64
}

// Validate vetoes unknown points, wrong DOF counts, and oversized moves.
func (p *ShoreWesternPlugin) Validate(_ context.Context, actions []core.Action) error {
	return validateChannel("shore-western", p.Point, p.MaxDisplacement, actions)
}

// Execute moves the actuator and reads back position and force, one
// exchange with the controller per action.
func (p *ShoreWesternPlugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	results := make([]core.Result, len(actions))
	for i, a := range actions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos, force, err := p.Client.Move(ctx, a.Displacements[0])
		if err != nil {
			return nil, fmt.Errorf("shore-western move: %w", err)
		}
		results[i] = core.Result{
			ControlPoint:  a.ControlPoint,
			Displacements: []float64{pos},
			Forces:        []float64{force},
		}
	}
	return results, nil
}

var _ core.Plugin = (*ShoreWesternPlugin)(nil)

// XPCPlugin drives the CU path of Fig. 9: each command posted to an
// xPC-style real-time target, its outcome collected from the target's reply.
// The wait is bounded by the execution context, which core.Server always
// gives a deadline.
type XPCPlugin struct {
	Point  string
	Target *control.XPCTarget
}

// Validate vetoes unknown points, wrong DOF counts, and moves beyond the
// target's stroke.
func (p *XPCPlugin) Validate(_ context.Context, actions []core.Action) error {
	return validateChannel("xpc", p.Point, p.Target.Stroke(), actions)
}

// Execute posts each action and waits for the target's reply to it.
func (p *XPCPlugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	results := make([]core.Result, len(actions))
	for i, a := range actions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos, force, err := p.Target.Move(ctx, a.Displacements[0])
		if err != nil {
			return nil, fmt.Errorf("xpc: %w", err)
		}
		results[i] = core.Result{
			ControlPoint:  a.ControlPoint,
			Displacements: []float64{pos},
			Forces:        []float64{force},
		}
	}
	return results, nil
}

var _ core.Plugin = (*XPCPlugin)(nil)

// HumanApprovalPlugin wraps another plugin so that every execution requires
// an explicit approval decision — the §4 operational procedure "a
// plugin/backend system that required a human to approve each action (used
// only during initial testing at UIUC)".
type HumanApprovalPlugin struct {
	Inner core.Plugin
	// Approve is consulted per execution; returning false aborts it.
	Approve func(actions []core.Action) bool
}

// Validate delegates to the inner plugin.
func (p *HumanApprovalPlugin) Validate(ctx context.Context, actions []core.Action) error {
	return p.Inner.Validate(ctx, actions)
}

// Execute asks for approval, then delegates.
func (p *HumanApprovalPlugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	if p.Approve == nil || !p.Approve(actions) {
		return nil, fmt.Errorf("human approval withheld")
	}
	return p.Inner.Execute(ctx, actions)
}

var _ core.Plugin = (*HumanApprovalPlugin)(nil)

// finite refuses a NaN or ±Inf displacement: no back end can move to one,
// so a proposal carrying one is refused before anything moves.
func finite(ds []float64) error {
	for _, d := range ds {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("displacement %g is not finite", d)
		}
	}
	return nil
}

// validateChannel is a single-DOF rig channel's proposal screen: the
// channel's control point, one finite displacement, and |d| <= max when
// max > 0. The limit is written as what passes, so that a NaN, which fails
// every comparison, fails it too.
func validateChannel(channel, point string, max float64, actions []core.Action) error {
	for _, a := range actions {
		if a.ControlPoint != point {
			return fmt.Errorf("unknown control point %q", a.ControlPoint)
		}
		if len(a.Displacements) != 1 {
			return fmt.Errorf("%s channel is single-DOF", channel)
		}
		if err := finite(a.Displacements); err != nil {
			return err
		}
		if d := a.Displacements[0]; max > 0 && !(math.Abs(d) <= max) {
			return fmt.Errorf("displacement %g exceeds site limit %g", d, max)
		}
	}
	return nil
}
