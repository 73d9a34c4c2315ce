package core

import (
	"context"
	"fmt"

	"neesgrid/internal/ogsi"
)

// ExecuteAndPropose fuses execute(execName) with a speculative
// propose(next) into one batched signed envelope — both NTCP phases of
// adjacent steps cross the WAN in a single round trip. This is the client
// half of the pipelined stepping schedule: the coordinator commits step N
// and opens step N+1 at the predicted displacement without paying a second
// latency. The envelope is retried as one unit (see send).
//
// Both records are returned even when err is non-nil (nil where that item
// faulted): a failed execute alongside an accepted speculative propose
// means the caller must still cancel the speculative transaction, so it
// needs that record.
func (c *Client) ExecuteAndPropose(ctx context.Context, execName string, next *Proposal) (*Record, *Record, error) {
	return c.thenPropose(ctx, "execute", execName, next)
}

// CancelAndPropose fuses cancel(cancelName) with propose(next) into one
// batched envelope: the pipelined schedule's rollback, which withdraws a
// mispredicted speculation and proposes the step at its actual displacement
// in one round trip. Records and error as ExecuteAndPropose.
func (c *Client) CancelAndPropose(ctx context.Context, cancelName string, next *Proposal) (*Record, *Record, error) {
	return c.thenPropose(ctx, "cancel", cancelName, next)
}

// thenPropose sends op on the named transaction and propose(next) in one
// envelope.
func (c *Client) thenPropose(ctx context.Context, op, name string, next *Proposal) (*Record, *Record, error) {
	recs := make([]Record, 2)
	faults, err := c.send(ctx, []ogsi.BatchOp{
		{Op: op, Params: nameParams{Name: name}},
		{Op: "propose", Params: next},
	}, recs)
	if err != nil {
		return nil, nil, err
	}
	firstRec, propRec := &recs[0], &recs[1]
	if faults != nil {
		// The first op's fault is assigned last: it is the one err reports
		// when both items faulted.
		if faults[1] != nil {
			propRec, err = nil, fmt.Errorf("ntcp: propose %s: %w", next.Name, faults[1])
		}
		if faults[0] != nil {
			firstRec, err = nil, fmt.Errorf("ntcp: %s %s: %w", op, name, faults[0])
		}
	}
	return firstRec, propRec, err
}
