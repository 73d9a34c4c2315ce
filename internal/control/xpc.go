package control

import (
	"context"
	"sync"
	"sync/atomic"
)

// XPCTarget emulates the CU configuration of Fig. 9: a target machine
// running a real-time OS that owns the servo loop, driven asynchronously by
// a host application. The host posts each command to the target's mailbox
// together with a reply slot; the target wakes when a command arrives,
// applies it through the rig and answers on that command's own reply. The
// servo cycle itself lives in simulated time (Actuator.Move) and wall-clock
// settle in Rig.SettleDelay, so nothing here waits on a timer.
type XPCTarget struct {
	rig     *Rig
	mailbox chan xpcCommand
	applied atomic.Int64

	mu   sync.Mutex
	stop chan struct{} // closed to end the running loop; nil when none runs
	done chan struct{} // closed by the loop as it returns
}

type xpcCommand struct {
	target float64
	reply  chan<- xpcReply
}

type xpcReply struct {
	pos, force float64
	err        error
}

// NewXPCTarget wraps a rig.
func NewXPCTarget(rig *Rig) *XPCTarget {
	return &XPCTarget{rig: rig, mailbox: make(chan xpcCommand)}
}

// Start launches the target's loop; it is a no-op while one runs.
func (x *XPCTarget) Start() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stop != nil {
		return
	}
	x.stop, x.done = make(chan struct{}), make(chan struct{})
	go x.loop(x.stop, x.done)
}

// Stop halts the loop and returns once it has exited, after the command it
// was applying, if any. A command not yet taken stays with its host, which
// gives up when its context ends.
func (x *XPCTarget) Stop() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.stop != nil {
		close(x.stop)
		<-x.done
		x.stop, x.done = nil, nil
	}
}

// Stroke is the rig's actuator stroke (m): the largest |command| the
// target can reach.
func (x *XPCTarget) Stroke() float64 { return x.rig.actuator.cfg.Stroke }

func (x *XPCTarget) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case cmd := <-x.mailbox:
			forces, err := x.rig.Apply([]float64{cmd.target})
			x.applied.Add(1)
			if err != nil {
				cmd.reply <- xpcReply{err: err}
				continue
			}
			cmd.reply <- xpcReply{pos: cmd.target, force: forces[0]}
		case <-stop:
			return
		}
	}
}

// Move posts a position command and waits for the target's answer to it:
// the commanded position and the measured force, or the rig's error. It
// returns ctx's error if ctx ends first; a command the target already took
// still completes on the rig.
func (x *XPCTarget) Move(ctx context.Context, pos float64) (float64, float64, error) {
	reply := make(chan xpcReply, 1)
	select {
	case x.mailbox <- xpcCommand{target: pos, reply: reply}:
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
	select {
	case r := <-reply:
		return r.pos, r.force, r.err
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
}
