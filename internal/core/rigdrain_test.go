package core_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/plugin"
	"neesgrid/internal/runtime"
)

// An execution waiting on a rig controller that has gone silent ends with
// the execution context Stop cancels: the drain completes instead of giving
// up on an execution that ignored it, and the record fails.
func TestStopCutsAnExecutionOnASilentController(t *testing.T) {
	var cl *control.ShoreWesternClient
	heard := make(chan struct{}, 1)
	silent := runtime.NewConnServer("silent-controller", func(ctx context.Context, conn net.Conn) {
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			heard <- struct{}{}
		}
		<-ctx.Done()
	})
	t.Cleanup(func() { // after the controller's: a Close that waits on the exchange returns then
		if cl != nil {
			_ = cl.Close()
		}
	})
	addr, err := silent.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = silent.Close() })
	cl = control.NewShoreWesternClient(addr)

	s := core.NewServer(&plugin.ShoreWesternPlugin{Point: "drift", Client: cl}, nil, core.ServerOptions{})
	ctx := context.Background()
	const name = "step-1"
	if _, err := s.Propose(ctx, "coord", &core.Proposal{Name: name,
		Actions: []core.Action{{ControlPoint: "drift", Displacements: []float64{0.01}}}}); err != nil {
		t.Fatal(err)
	}
	// The caller gives up waiting; the execution goes on without it.
	detach, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := s.Execute(detach, "coord", name); err == nil {
		t.Fatal("an execution on a silent controller succeeded")
	}
	select {
	case <-heard:
	case <-time.After(5 * time.Second):
		t.Fatal("the command never reached the controller")
	}

	stopCtx, cancelStop := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelStop()
	if err := s.Stop(stopCtx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	rec, err := s.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != core.StateFailed || !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("record after the drain: %s %q, want failed on the context's cancellation", rec.State, rec.Error)
	}
}
