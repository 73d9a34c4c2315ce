package plugin

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/runtime"
)

func action(point string, d float64) []core.Action {
	return []core.Action{{ControlPoint: point, Displacements: []float64{d}}}
}

func TestMpluginPollNotifyCycle(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	ctx := context.Background()

	// Back end: one manual poll/notify round.
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, err := m.Poll(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if len(req.Actions) != 1 || req.Actions[0].Displacements[0] != 0.02 {
			t.Errorf("polled %+v", req)
			return
		}
		_ = m.Notify(req.ID, []core.Result{{
			ControlPoint:  "drift",
			Displacements: req.Actions[0].Displacements,
			Forces:        []float64{42},
		}}, nil)
	}()

	results, err := m.Execute(ctx, action("drift", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if len(results) != 1 || results[0].Forces[0] != 42 {
		t.Fatalf("results = %+v", results)
	}
}

func TestMpluginRunBackend(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.RunBackend(ctx, func(d []float64) ([]float64, error) {
			return []float64{100 * d[0]}, nil
		})
	}()
	results, err := m.Execute(ctx, action("drift", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].Forces[0]-5) > 1e-12 {
		t.Fatalf("force = %g", results[0].Forces[0])
	}
	cancel()
	wg.Wait()
}

func TestMpluginBackendError(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = m.RunBackend(ctx, func([]float64) ([]float64, error) {
			return nil, fmt.Errorf("matlab crashed")
		})
	}()
	_, err := m.Execute(ctx, action("drift", 0.01))
	if err == nil {
		t.Fatal("back-end error should propagate")
	}
}

func TestMpluginExecuteTimesOutWithoutBackend(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := m.Execute(ctx, action("drift", 0.01)); err == nil {
		t.Fatal("execute with no back end should time out")
	}
}

func TestMpluginValidate(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	if err := m.Validate(context.Background(), action("other", 0.01)); err == nil {
		t.Fatal("unknown point should fail")
	}
	if err := m.Validate(context.Background(), []core.Action{{ControlPoint: "drift", Displacements: []float64{1, 2}}}); err == nil {
		t.Fatal("DOF mismatch should fail")
	}
	if err := m.Validate(context.Background(), action("drift", 0.01)); err != nil {
		t.Fatalf("a finite move: %v", err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.Validate(context.Background(), action("drift", d)); err == nil {
			t.Errorf("a move to %g passed validation", d)
		}
	}
	two := NewMplugin("drift", 2, 4)
	if err := two.Validate(context.Background(), []core.Action{{ControlPoint: "drift", Displacements: []float64{0.01, math.NaN()}}}); err == nil {
		t.Error("a NaN in the second DOF passed validation")
	}
}

func TestMpluginNotifyUnknownID(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	if err := m.Notify("nope", nil, nil); err == nil {
		t.Fatal("notify for unknown request should fail")
	}
}

func quietActuator() control.ActuatorConfig {
	cfg := control.DefaultActuator()
	cfg.PositionNoiseStd = 0
	cfg.ForceNoiseStd = 0
	return cfg
}

func TestShoreWesternPluginExecute(t *testing.T) {
	rig := control.NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := control.NewShoreWesternServer(rig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := &ShoreWesternPlugin{Point: "left-column", Client: control.NewShoreWesternClient(addr)}
	defer p.Client.Close()
	if err := p.Validate(context.Background(), action("left-column", 0.02)); err != nil {
		t.Fatal(err)
	}
	results, err := p.Execute(context.Background(), action("left-column", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].Forces[0]-20) > 1 {
		t.Fatalf("force = %g, want ~20", results[0].Forces[0])
	}
	if math.Abs(results[0].Displacements[0]-0.02) > 1e-3 {
		t.Fatalf("achieved = %g", results[0].Displacements[0])
	}
}

func TestShoreWesternPluginValidateLimits(t *testing.T) {
	limited := &ShoreWesternPlugin{Point: "left-column", MaxDisplacement: 0.05}
	unlimited := &ShoreWesternPlugin{Point: "left-column"}
	for _, row := range []struct {
		name  string
		p     *ShoreWesternPlugin
		point string
		d     float64
		ok    bool
	}{
		{"within the limit", limited, "left-column", 0.01, true},
		{"oversized", limited, "left-column", 0.1, false},
		{"unknown point", limited, "wrong", 0.01, false},
		{"NaN", limited, "left-column", math.NaN(), false},
		{"+Inf", limited, "left-column", math.Inf(1), false},
		{"-Inf", limited, "left-column", math.Inf(-1), false},
		{"no limit", unlimited, "left-column", 10, true},
		{"NaN, no limit", unlimited, "left-column", math.NaN(), false},
		{"+Inf, no limit", unlimited, "left-column", math.Inf(1), false},
		{"-Inf, no limit", unlimited, "left-column", math.Inf(-1), false},
	} {
		if err := row.p.Validate(context.Background(), action(row.point, row.d)); (err == nil) != row.ok {
			t.Errorf("%s: Validate(%s, %g) = %v, want ok=%v", row.name, row.point, row.d, err, row.ok)
		}
	}
}

// countingConn counts the writes a client makes on its connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingProxy forwards every connection to addr, passing on each read from
// the client as one write on a countingConn to addr. On loopback a client
// write of a few bytes arrives as one read, so writes counts the client's
// writes, and a write that waits for the reply to the one before is always
// counted apart from it.
func countingProxy(t *testing.T, addr string, writes *atomic.Int64) string {
	t.Helper()
	srv := runtime.NewConnServer("counting-proxy", func(_ context.Context, client net.Conn) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		up := countingConn{Conn: conn, writes: writes}
		defer up.Close()
		go func() { _, _ = io.Copy(client, conn) }()
		buf := make([]byte, 4096)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, err := up.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	})
	proxy, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return proxy
}

// Exact count: one action is one write on the controller connection, its
// MOVE and READ pipelined (a round trip each used to be two).
func TestShoreWesternPluginOneWritePerAction(t *testing.T) {
	rig := control.NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := control.NewShoreWesternServer(rig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var writes atomic.Int64
	cl := control.NewShoreWesternClient(countingProxy(t, addr, &writes))
	defer cl.Close()
	p := &ShoreWesternPlugin{Point: "left-column", Client: cl}
	for i, d := range []float64{0.01, 0.02, -0.01} {
		results, err := p.Execute(context.Background(), action("left-column", d))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(results[0].Displacements[0]-d) > 1e-3 || math.Abs(results[0].Forces[0]-1000*d) > 1 {
			t.Fatalf("action %g: results %+v", d, results[0])
		}
		if got := writes.Load(); got != int64(i+1) {
			t.Fatalf("after %d actions: %d writes, want %d", i+1, got, i+1)
		}
	}
}

func TestXPCPluginExecute(t *testing.T) {
	rig := control.NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	target := control.NewXPCTarget(rig)
	target.Start()
	defer target.Stop()

	p := &XPCPlugin{Point: "right-column", Target: target}
	results, err := p.Execute(context.Background(), action("right-column", 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].Forces[0]-10) > 1 {
		t.Fatalf("force = %g", results[0].Forces[0])
	}
}

// The plugin has no timeout of its own: its wait ends with the execution
// context, even against a target that never answers.
func TestXPCPluginExecuteEndsWithItsContext(t *testing.T) {
	rig := control.NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	p := &XPCPlugin{Point: "right-column", Target: control.NewXPCTarget(rig)} // loop not running
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Execute(ctx, action("right-column", 0.01))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("returned before its context ended: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("still waiting 50 ms after its context was cancelled")
	}
	if rig.Applied() != 0 {
		t.Fatal("a command nobody took was applied")
	}
}

// silentPeer is a rig controller that accepts connections and never answers,
// as one hung mid-exchange would. heard ticks when a connection has sent it
// something.
func silentPeer(t *testing.T) (addr string, heard chan struct{}) {
	t.Helper()
	heard = make(chan struct{}, 16)
	srv := runtime.NewConnServer("silent-peer", func(ctx context.Context, conn net.Conn) {
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			heard <- struct{}{}
		}
		<-ctx.Done()
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, heard
}

// tcpRigs are the plugins that reach their rig through a controller they
// dial. controller serves a fresh rig and reports whether it has moved; dial
// builds the plugin against a controller's address, with the Close that
// ends its connection.
var tcpRigs = []struct {
	name       string
	point      string
	controller func(t *testing.T) (addr string, moved func() bool)
	dial       func(addr string) (core.Plugin, func() error)
}{
	{
		name:  "shore-western",
		point: "left-column",
		controller: func(t *testing.T) (string, func() bool) {
			rig := control.NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
			srv := control.NewShoreWesternServer(rig)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			return addr, func() bool { return rig.Applied() != 0 }
		},
		dial: func(addr string) (core.Plugin, func() error) {
			cl := control.NewShoreWesternClient(addr)
			return &ShoreWesternPlugin{Point: "left-column", Client: cl}, cl.Close
		},
	},
	{
		name:  "labview",
		point: "beam",
		controller: func(t *testing.T) (string, func() bool) {
			rig := control.NewStepperBeam("mini", 1080, 1e-4, 1000)
			daemon := NewLabViewDaemon(rig)
			addr, err := daemon.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = daemon.Close() })
			return addr, func() bool { return rig.Position() != 0 }
		},
		dial: func(addr string) (core.Plugin, func() error) {
			p := &LabViewPlugin{Point: "beam", Addr: addr}
			return p, p.Close
		},
	},
}

// A plugin that dials its controller waits on it no longer than its
// execution context allows, even when the controller never answers; and an
// execution whose context has already ended moves nothing.
func TestTCPRigPluginsEndWithTheirContext(t *testing.T) {
	const deadline, margin = 100 * time.Millisecond, 300 * time.Millisecond
	for _, rig := range tcpRigs {
		t.Run(rig.name, func(t *testing.T) {
			var closeFn func() error
			t.Cleanup(func() { _ = closeFn() }) // after the peer's: a Close that waits on the exchange returns then
			addr, _ := silentPeer(t)
			var p core.Plugin
			p, closeFn = rig.dial(addr)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				_, err := p.Execute(ctx, action(rig.point, 0.01))
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want the context's deadline", err)
				}
				if took := time.Since(start); took > deadline+margin {
					t.Fatalf("returned %v after a %v deadline", took, deadline)
				}
			case <-time.After(deadline + margin):
				t.Fatalf("still waiting on a silent controller %v after a %v deadline", margin, deadline)
			}

			addr, moved := rig.controller(t)
			p, closeReal := rig.dial(addr)
			defer closeReal()
			ended, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.Execute(ended, action(rig.point, 0.01)); !errors.Is(err, context.Canceled) {
				t.Fatalf("Execute on an ended context: %v, want context.Canceled", err)
			}
			if moved() {
				t.Fatal("an execution on an ended context moved the rig")
			}
		})
	}
}

// Close severs the controller connection at once, even with an exchange in
// flight on it, and that exchange fails.
func TestTCPRigPluginsCloseCutsAnExchange(t *testing.T) {
	const prompt = 500 * time.Millisecond
	for _, rig := range tcpRigs {
		t.Run(rig.name, func(t *testing.T) {
			addr, heard := silentPeer(t)
			p, closeFn := rig.dial(addr)
			executed := make(chan error, 1)
			go func() {
				_, err := p.Execute(context.Background(), action(rig.point, 0.01))
				executed <- err
			}()
			select {
			case <-heard:
			case <-time.After(5 * time.Second):
				t.Fatal("the command never reached the controller")
			}
			closed := make(chan error, 1)
			go func() { closed <- closeFn() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(prompt):
				t.Fatalf("Close still blocked %v behind the exchange in flight", prompt)
			}
			select {
			case err := <-executed:
				if err == nil {
					t.Fatal("the exchange Close cut reported success")
				}
			case <-time.After(prompt):
				t.Fatalf("the exchange still running %v after Close", prompt)
			}
		})
	}
}

func TestXPCPluginValidate(t *testing.T) {
	rig := control.NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	p := &XPCPlugin{Point: "right-column", Target: control.NewXPCTarget(rig)}
	if err := p.Validate(context.Background(), action("x", 0.01)); err == nil {
		t.Fatal("unknown point")
	}
	// The target's stroke screens the proposal, before anything moves.
	if err := p.Validate(context.Background(), action("right-column", 1)); err == nil {
		t.Fatal("a move beyond the stroke passed validation")
	}
	if err := p.Validate(context.Background(), action("right-column", 0.01)); err != nil {
		t.Fatalf("a move within the stroke: %v", err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := p.Validate(context.Background(), action("right-column", d)); err == nil {
			t.Errorf("a move to %g passed validation", d)
		}
	}
}

func TestHumanApprovalPlugin(t *testing.T) {
	inner := core.PluginFunc(func(_ context.Context, actions []core.Action) ([]core.Result, error) {
		return []core.Result{{ControlPoint: actions[0].ControlPoint, Forces: []float64{1}}}, nil
	})
	approvals := 0
	p := &HumanApprovalPlugin{Inner: inner, Approve: func([]core.Action) bool {
		approvals++
		return approvals == 1 // approve only the first
	}}
	if _, err := p.Execute(context.Background(), action("drift", 0.01)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), action("drift", 0.01)); err == nil {
		t.Fatal("withheld approval should abort execution")
	}
	// Nil approver denies everything.
	deny := &HumanApprovalPlugin{Inner: inner}
	if _, err := deny.Execute(context.Background(), action("drift", 0.01)); err == nil {
		t.Fatal("nil approver should deny")
	}
}

func TestLabViewDaemonAndPlugin(t *testing.T) {
	rig := control.NewStepperBeam("mini", 1080, 1e-4, 1000)
	daemon := NewLabViewDaemon(rig)
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	p := &LabViewPlugin{Point: "beam", Addr: addr}
	defer p.Close()
	results, err := p.Execute(context.Background(), action("beam", 0.005))
	if err != nil {
		t.Fatal(err)
	}
	// Stepper quantization: 0.005 / 1e-4 = 50 steps exactly.
	if math.Abs(results[0].Displacements[0]-0.005) > 1e-12 {
		t.Fatalf("pos = %g", results[0].Displacements[0])
	}
	if math.Abs(results[0].Forces[0]-1080*0.005) > 1e-9 {
		t.Fatalf("force = %g", results[0].Forces[0])
	}
}

func TestLabViewDaemonCloseSeversOpenConnections(t *testing.T) {
	rig := control.NewStepperBeam("mini", 1080, 1e-4, 1000)
	daemon := NewLabViewDaemon(rig)
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// A reply proves the daemon is serving this connection before Close.
	if _, err := fmt.Fprintln(conn, `{"cmd":"read"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Close(); err != nil {
		t.Fatal(err)
	}
	_, _ = fmt.Fprintln(conn, `{"cmd":"move","pos":0.001}`)
	if reply, err := r.ReadString('\n'); err == nil {
		t.Fatalf("move after Close answered %q", reply)
	}
	if pos := rig.Position(); pos != 0 {
		t.Fatalf("rig moved after Close: position %g", pos)
	}
}

func TestLabViewPluginDaemonError(t *testing.T) {
	rig := control.NewStepperBeam("mini", 1080, 1e-4, 10)
	daemon := NewLabViewDaemon(rig)
	addr, _ := daemon.Start("127.0.0.1:0")
	defer daemon.Close()
	p := &LabViewPlugin{Point: "beam", Addr: addr}
	defer p.Close()
	if _, err := p.Execute(context.Background(), action("beam", 0.5)); err == nil {
		t.Fatal("travel-limit violation should propagate")
	}
}

func TestLabViewPluginValidate(t *testing.T) {
	p := &LabViewPlugin{Point: "beam"}
	if err := p.Validate(context.Background(), action("other", 0.01)); err == nil {
		t.Fatal("unknown point")
	}
	if err := p.Validate(context.Background(), action("beam", 0.01)); err != nil {
		t.Fatalf("a finite move: %v", err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := p.Validate(context.Background(), action("beam", d)); err == nil {
			t.Errorf("a move to %g passed validation", d)
		}
	}
}

func TestLabViewDaemonUnknownCommand(t *testing.T) {
	rig := control.NewStepperBeam("mini", 1080, 1e-4, 1000)
	d := NewLabViewDaemon(rig)
	resp := d.handle(&lvRequest{Cmd: "frob"})
	if resp.OK {
		t.Fatal("unknown command should fail")
	}
	resp = d.handle(&lvRequest{Cmd: "reset"})
	if !resp.OK {
		t.Fatal("reset should succeed")
	}
	resp = d.handle(&lvRequest{Cmd: "read"})
	if !resp.OK || resp.Pos != 0 {
		t.Fatalf("read = %+v", resp)
	}
}

// Integration: an Mplugin-backed NTCP server behaves identically to a
// direct plugin — the substitution-transparency core of E3, at plugin
// granularity.
func TestMpluginBehindNTCPServer(t *testing.T) {
	m := NewMplugin("drift", 1, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = m.RunBackend(ctx, func(d []float64) ([]float64, error) {
			return []float64{2000 * d[0]}, nil
		})
	}()
	srv := core.NewServer(m, nil, core.ServerOptions{})
	rec, err := srv.Propose(ctx, "coord", &core.Proposal{
		Name:    "s1",
		Actions: action("drift", 0.01),
	})
	if err != nil || rec.State != core.StateAccepted {
		t.Fatalf("propose: %+v, %v", rec, err)
	}
	rec, err = srv.Execute(ctx, "coord", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != core.StateExecuted || math.Abs(rec.Results[0].Forces[0]-20) > 1e-9 {
		t.Fatalf("record = %+v", rec)
	}
}

// Regression: a daemon started after Close bound a new listener, reset the
// first connection to it and leaked the listener.
func TestLabViewDaemonStartAfterCloseFails(t *testing.T) {
	d := NewLabViewDaemon(control.NewStepperBeam("mini", 1080, 1e-4, 1000))
	if _, err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if addr, err := d.Start("127.0.0.1:0"); err == nil {
		t.Fatalf("a closed daemon started again on %s", addr)
	}
}
