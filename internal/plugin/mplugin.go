// Package plugin provides the NTCP control plugins used in the MOST and
// Mini-MOST configurations (paper Fig. 9): the buffering "Mplugin" with its
// poll/notify back-end service (NCSA and CU), a plugin speaking the
// Shore-Western TCP control protocol (UIUC), an xPC-target plugin (CU's
// servo path), a LabVIEW daemon plugin (Mini-MOST), and a human-approval
// wrapper (the §4 procedure used during initial testing at UIUC).
package plugin

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"neesgrid/internal/core"
)

// PendingRequest is one buffered NTCP request awaiting a back-end poll.
type PendingRequest struct {
	ID      string        `json:"id"`
	Actions []core.Action `json:"actions"`
}

// Mplugin is the buffering plugin of §3.1: "instead of pushing requests out
// to the back-end as they were received, the plugin buffered requests and
// implemented a separate service to provide information about them. The
// Matlab simulation … would then poll that service for requests; when the
// simulation received a request, it would perform an appropriate computation
// then call the plugin-implemented service to notify the NTCP server of the
// results."
type Mplugin struct {
	// Point and NDOF describe the control point served.
	Point string
	NDOF  int

	queue   chan *PendingRequest
	nextID  atomic.Int64
	mu      sync.Mutex
	waiters map[string]chan notification
}

type notification struct {
	results []core.Result
	err     error
}

// NewMplugin builds a buffering plugin with the given queue depth.
func NewMplugin(point string, ndof, depth int) *Mplugin {
	if depth < 1 {
		depth = 16
	}
	return &Mplugin{
		Point:   point,
		NDOF:    ndof,
		queue:   make(chan *PendingRequest, depth),
		waiters: make(map[string]chan notification),
	}
}

// Validate checks control point and DOF shape.
func (m *Mplugin) Validate(_ context.Context, actions []core.Action) error {
	for _, a := range actions {
		if a.ControlPoint != m.Point {
			return fmt.Errorf("unknown control point %q (have %q)", a.ControlPoint, m.Point)
		}
		if len(a.Displacements) != m.NDOF {
			return fmt.Errorf("control point %q has %d dofs, action has %d", m.Point, m.NDOF, len(a.Displacements))
		}
	}
	return nil
}

// Execute buffers the request and waits for the back end to poll it and
// notify the outcome.
func (m *Mplugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	id := fmt.Sprintf("req-%d", m.nextID.Add(1))
	ch := make(chan notification, 1)
	m.mu.Lock()
	m.waiters[id] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.waiters, id)
		m.mu.Unlock()
	}()

	req := &PendingRequest{ID: id, Actions: actions}
	select {
	case m.queue <- req:
	case <-ctx.Done():
		return nil, fmt.Errorf("mplugin: buffer full, request not queued: %w", ctx.Err())
	}
	select {
	case n := <-ch:
		return n.results, n.err
	case <-ctx.Done():
		return nil, fmt.Errorf("mplugin: back end did not respond: %w", ctx.Err())
	}
}

// Poll blocks until a buffered request is available — the service the
// back-end simulation polls.
func (m *Mplugin) Poll(ctx context.Context) (*PendingRequest, error) {
	select {
	case req := <-m.queue:
		return req, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Notify delivers the back end's outcome for a polled request.
func (m *Mplugin) Notify(id string, results []core.Result, execErr error) error {
	m.mu.Lock()
	ch, ok := m.waiters[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("mplugin: no pending request %q", id)
	}
	select {
	case ch <- notification{results: results, err: execErr}:
		return nil
	default:
		return fmt.Errorf("mplugin: request %q already notified", id)
	}
}

// RunBackend is the back-end loop the Matlab simulation ran at NCSA: poll
// for requests, apply them through the supplied function, notify results.
// It returns when ctx is cancelled.
func (m *Mplugin) RunBackend(ctx context.Context, apply func(d []float64) ([]float64, error)) error {
	for {
		req, err := m.Poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		results := make([]core.Result, 0, len(req.Actions))
		var execErr error
		for _, a := range req.Actions {
			forces, err := apply(a.Displacements)
			if err != nil {
				execErr = err
				break
			}
			results = append(results, core.Result{
				ControlPoint:  a.ControlPoint,
				Displacements: append([]float64(nil), a.Displacements...),
				Forces:        forces,
			})
		}
		if execErr != nil {
			_ = m.Notify(req.ID, nil, execErr)
			continue
		}
		_ = m.Notify(req.ID, results, nil)
	}
}

var _ core.Plugin = (*Mplugin)(nil)
