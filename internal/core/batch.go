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
	recs := make([]Record, 2)
	faults, err := c.send(ctx, []ogsi.BatchOp{
		{Op: "execute", Params: nameParams{Name: execName}},
		{Op: "propose", Params: next},
	}, recs)
	if err != nil {
		return nil, nil, err
	}
	execRec, propRec := &recs[0], &recs[1]
	if faults != nil {
		// The execute fault is assigned last: it is the one err reports
		// when both items faulted.
		if faults[1] != nil {
			propRec, err = nil, fmt.Errorf("ntcp: propose %s: %w", next.Name, faults[1])
		}
		if faults[0] != nil {
			execRec, err = nil, fmt.Errorf("ntcp: execute %s: %w", execName, faults[0])
		}
	}
	return execRec, propRec, err
}
