package control

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"neesgrid/internal/structural"
)

func quietActuator() ActuatorConfig {
	cfg := DefaultActuator()
	cfg.PositionNoiseStd = 0
	cfg.ForceNoiseStd = 0
	return cfg
}

func TestActuatorMoveSettles(t *testing.T) {
	a := NewActuator(quietActuator(), structural.NewLinearElastic(1000))
	pos, err := a.Move(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.01) > 1e-4 {
		t.Fatalf("settled at %g, want ~0.01", pos)
	}
	if a.SimTime() <= 0 {
		t.Fatal("simulated time did not advance")
	}
	f := a.Force()
	if math.Abs(f-1000*pos) > 1 {
		t.Fatalf("force = %g, want ~%g", f, 1000*pos)
	}
}

func TestActuatorStrokeLimit(t *testing.T) {
	a := NewActuator(quietActuator(), structural.NewLinearElastic(1000))
	if _, err := a.Move(1.0); err == nil {
		t.Fatal("command beyond stroke should fail")
	}
}

func TestActuatorRateLimitSlowsMove(t *testing.T) {
	cfg := quietActuator()
	cfg.RateLimit = 0.01 // m/s
	a := NewActuator(cfg, structural.NewLinearElastic(1000))
	_, err := a.Move(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 0.05 m at 0.01 m/s needs at least 5 simulated seconds.
	if a.SimTime() < 4.5 {
		t.Fatalf("rate-limited move took %g simulated s, want >= 4.5", a.SimTime())
	}
}

func TestActuatorSettleTimeout(t *testing.T) {
	cfg := quietActuator()
	cfg.RateLimit = 1e-6 // effectively frozen
	cfg.SettleTimeout = 0.1
	a := NewActuator(cfg, structural.NewLinearElastic(1000))
	if _, err := a.Move(0.05); err == nil {
		t.Fatal("frozen actuator should time out")
	}
}

func TestActuatorNoiseDeterministic(t *testing.T) {
	cfg := DefaultActuator()
	make1 := func() []float64 {
		a := NewActuator(cfg, structural.NewLinearElastic(1000))
		_, _ = a.Move(0.01)
		return []float64{a.Position(), a.Force()}
	}
	r1, r2 := make1(), make1()
	if r1[0] != r2[0] || r1[1] != r2[1] {
		t.Fatal("sensor noise not deterministic across equal seeds")
	}
	if r1[0] == 0.01 {
		t.Fatal("position reading suspiciously noise-free")
	}
}

func TestInterlockTripsOnForce(t *testing.T) {
	il := &Interlock{MaxForce: 100}
	if err := il.Check(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := il.Check(0, 150); err == nil {
		t.Fatal("over-force should trip")
	}
	// Latched: even a safe measurement now fails.
	if err := il.Check(0, 0); err == nil {
		t.Fatal("tripped interlock should stay tripped")
	}
	il.Clear()
	if err := il.Check(0, 0); err != nil {
		t.Fatal("cleared interlock should pass")
	}
}

func TestInterlockTripKeepsFirstReason(t *testing.T) {
	il := &Interlock{}
	il.Trip("first")
	il.Trip("second")
	if il.Tripped() != "first" {
		t.Fatalf("reason = %q", il.Tripped())
	}
}

func TestRigApplyMeasuresSpecimenForce(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	f, err := rig.Apply([]float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]-20) > 0.5 {
		t.Fatalf("force = %g, want ~20", f[0])
	}
	if rig.Applied() != 1 {
		t.Fatal("apply counter")
	}
	if rig.NDOF() != 1 || rig.Name() != "uiuc" {
		t.Fatal("metadata")
	}
}

func TestRigBilinearSpecimenYields(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 10, 0.1) // yields at 0.01
	f, err := rig.Apply([]float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	elastic := 1000 * 0.05
	if f[0] >= elastic {
		t.Fatalf("force %g shows no yielding (elastic would be %g)", f[0], elastic)
	}
}

func TestRigInterlockBlocksAfterTrip(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	rig.Interlock().Trip("operator stop")
	if _, err := rig.Apply([]float64{0.01}); err == nil {
		t.Fatal("tripped rig should refuse commands")
	}
	rig.Interlock().Clear()
	if _, err := rig.Apply([]float64{0.01}); err != nil {
		t.Fatal(err)
	}
}

func TestRigDimension(t *testing.T) {
	rig := NewColumnRig("u", quietActuator(), 1000, 0, 0)
	if _, err := rig.Apply([]float64{1, 2}); err == nil {
		t.Fatal("multi-DOF apply should fail")
	}
}

func TestRigSettleDelay(t *testing.T) {
	rig := NewColumnRig("u", quietActuator(), 1000, 0, 0)
	rig.SettleDelay = 30 * time.Millisecond
	start := time.Now()
	if _, err := rig.Apply([]float64{0.01}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("settle delay not applied")
	}
}

func TestShoreWesternRoundTrip(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewShoreWesternClient(addr)
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	pos, force, err := cl.Move(context.Background(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.02) > 1e-3 || math.Abs(force-20) > 1 {
		t.Fatalf("moved to %g, %g", pos, force)
	}
	rp, rf, err := cl.Read()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rp-0.02) > 1e-3 || math.Abs(rf-20) > 1 {
		t.Fatalf("read = %g, %g", rp, rf)
	}
}

func TestShoreWesternStopAndClear(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl := NewShoreWesternClient(addr)
	defer cl.Close()

	if err := cl.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Move(context.Background(), 0.01); err == nil {
		t.Fatal("move after STOP should fail")
	}
	if err := cl.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Move(context.Background(), 0.01); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestShoreWesternCloseSeversOpenConnections(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	// A reply proves the server is serving this connection before Close.
	if _, err := fmt.Fprintln(conn, "PING"); err != nil {
		t.Fatal(err)
	}
	if reply, err := r.ReadString('\n'); err != nil || reply != "OK pong\n" {
		t.Fatalf("PING = %q, %v", reply, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	before := rig.actuator.Position()
	_, _ = fmt.Fprintln(conn, "MOVE 0.001")
	if reply, err := r.ReadString('\n'); err == nil {
		t.Fatalf("MOVE after Close answered %q", reply)
	}
	if after := rig.actuator.Position(); after != before {
		t.Fatalf("rig moved after Close: %g -> %g", before, after)
	}
}

// A refused MOVE still has its READ answered; the client reads that reply
// too, so the next command gets its own response and not the stale one.
func TestShoreWesternMoveErrorKeepsStreamPaired(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl := NewShoreWesternClient(addr)
	defer cl.Close()

	if _, _, err := cl.Move(context.Background(), 0.5); err == nil || !strings.Contains(err.Error(), "stroke") {
		t.Fatalf("over-stroke move: err = %v", err)
	}
	if err := cl.Clear(); err != nil {
		t.Fatal(err)
	}
	pos, force, err := cl.Move(context.Background(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.01) > 1e-3 || math.Abs(force-10) > 1 {
		t.Fatalf("move after clear = %g, %g", pos, force)
	}
	if rig.Applied() != 1 {
		t.Fatalf("rig applied %d, want 1", rig.Applied())
	}
}

func TestShoreWesternBadCommands(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	if got := srv.handle("MOVE"); got[:3] != "ERR" {
		t.Fatalf("MOVE without arg: %q", got)
	}
	if got := srv.handle("MOVE abc"); got[:3] != "ERR" {
		t.Fatalf("MOVE with bad arg: %q", got)
	}
	if got := srv.handle("FROB 1"); got[:3] != "ERR" {
		t.Fatalf("unknown command: %q", got)
	}
	if got := srv.handle("MOVE 99"); got[:3] != "ERR" {
		t.Fatalf("move beyond stroke: %q", got)
	}
}

func TestShoreWesternClientReconnects(t *testing.T) {
	rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
	srv := NewShoreWesternServer(rig)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl := NewShoreWesternClient(addr)
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close() // sever
	if err := cl.Ping(); err != nil {
		t.Fatalf("client did not redial: %v", err)
	}
}

func TestXPCTargetAnswersEachCommand(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	if x.Applied() != 0 {
		t.Fatal("a target applies nothing before its first command")
	}
	x.Start()
	defer x.Stop()
	pos, force, err := x.Move(context.Background(), 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.03) > 1e-3 || math.Abs(force-30) > 1 {
		t.Fatalf("reply = %g, %g", pos, force)
	}
	if x.Applied() != 1 || rig.Applied() != 1 {
		t.Fatalf("applied: target %d, rig %d", x.Applied(), rig.Applied())
	}
}

func TestXPCTargetBackgroundLoop(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	x.Start()
	x.Start() // a second Start is a no-op
	if _, _, err := x.Move(context.Background(), 0.01); err != nil {
		t.Fatal(err)
	}
	x.Stop()
	x.Stop()
	// Restarted, the target takes commands again.
	x.Start()
	defer x.Stop()
	pos, _, err := x.Move(context.Background(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pos-0.02) > 1e-3 || x.Applied() != 2 {
		t.Fatalf("pos = %g, applied %d", pos, x.Applied())
	}
}

func TestXPCTargetSurfacesError(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig)
	x.Start()
	defer x.Stop()
	if _, _, err := x.Move(context.Background(), 9.9); !errors.Is(err, ErrStroke) { // beyond stroke
		t.Fatalf("stroke error should come back in the reply, got %v", err)
	}
	if x.Applied() != 1 || rig.Applied() != 0 {
		t.Fatalf("applied: target %d, rig %d", x.Applied(), rig.Applied())
	}
}

// A command posted while the target is still applying an earlier one gets
// its own outcome. A target whose host polled one shared status answered
// the second command with the first's settle (position 0.01, no error).
func TestXPCTargetOverlappingCommandsGetTheirOwnReplies(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	rig.SettleDelay = 20 * time.Millisecond // the first is still in Apply when the second is posted
	x := NewXPCTarget(rig)
	x.Start()
	defer x.Stop()
	targets := []float64{0.01, 0.02}
	got := make([]float64, len(targets))
	var wg sync.WaitGroup
	for i, d := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos, force, err := x.Move(context.Background(), d)
			if err != nil {
				t.Error(err)
				return
			}
			if math.Abs(force-1000*d) > 0.1 {
				t.Errorf("command %g: force %g belongs to another command", d, force)
			}
			got[i] = pos
		}()
	}
	wg.Wait()
	for i, d := range targets {
		if got[i] != d {
			t.Fatalf("command %g answered with position %g", d, got[i])
		}
	}
	if x.Applied() != 2 {
		t.Fatalf("applied %d, want 2", x.Applied())
	}
}

// Exact count, no clock: 4 hosts × 250 distinct commands through one target
// are 1,000 applications, each answered with its own command's outcome.
func TestXPCTargetConcurrentCommandsExact(t *testing.T) {
	const hosts, each = 4, 250
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	tol := quietActuator().Tolerance
	x := NewXPCTarget(rig)
	x.Start()
	defer x.Stop()
	var wg sync.WaitGroup
	for h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				d := float64(h*each+i+1) * 1e-4 // distinct, 0.1 mm apart, within stroke
				pos, force, err := x.Move(context.Background(), d)
				if err != nil {
					t.Error(err)
					return
				}
				// The force is measured at the settled position, which is
				// within the settle band of this command and no other.
				if pos != d || math.Abs(force-1000*d) > 1000*tol+1e-9 {
					t.Errorf("command %g answered with %g, %g", d, pos, force)
					return
				}
			}
		}()
	}
	wg.Wait()
	if x.Applied() != hosts*each || rig.Applied() != hosts*each {
		t.Fatalf("applied: target %d, rig %d, want %d", x.Applied(), rig.Applied(), hosts*each)
	}
}

func TestXPCTargetMoveEndsWithItsContext(t *testing.T) {
	rig := NewColumnRig("cu", quietActuator(), 1000, 0, 0)
	x := NewXPCTarget(rig) // never started: nothing takes the command
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := x.Move(ctx, 0.01); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Applied() != 0 || rig.Applied() != 0 {
		t.Fatal("a command nobody took was applied")
	}
}

func TestNonFiniteCommandsAreRefused(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := NewActuator(quietActuator(), structural.NewLinearElastic(1000))
		if _, err := a.Move(d); !errors.Is(err, ErrStroke) {
			t.Fatalf("Move(%g): err = %v, want ErrStroke", d, err)
		}
		if a.Position() != 0 || a.SimTime() != 0 {
			t.Fatalf("Move(%g) moved the actuator", d)
		}

		rig := NewColumnRig("uiuc", quietActuator(), 1000, 0, 0)
		srv := NewShoreWesternServer(rig)
		if got := srv.handle(fmt.Sprintf("MOVE %g", d)); !strings.HasPrefix(got, "ERR ") {
			t.Fatalf("MOVE %g answered %q", d, got)
		}
		if rig.Applied() != 0 {
			t.Fatalf("MOVE %g counted as applied", d)
		}

		x := NewXPCTarget(NewColumnRig("cu", quietActuator(), 1000, 0, 0))
		x.Start()
		_, _, err := x.Move(context.Background(), d)
		x.Stop()
		if !errors.Is(err, ErrStroke) {
			t.Fatalf("xpc Move(%g): err = %v, want ErrStroke", d, err)
		}
	}
}

func TestStepperQuantizesPosition(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 1000)
	f, err := s.Apply([]float64{0.00512}) // 51.2 steps -> 51 steps
	if err != nil {
		t.Fatal(err)
	}
	want := 51 * 1e-4
	if math.Abs(s.Position()-want) > 1e-12 {
		t.Fatalf("position = %g, want %g", s.Position(), want)
	}
	if math.Abs(f[0]-1080*want) > 1e-9 {
		t.Fatalf("force = %g", f[0])
	}
	if s.Moves() != 1 {
		t.Fatal("move counter")
	}
}

func TestStepperTravelLimit(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 100)
	if _, err := s.Apply([]float64{0.02}); err == nil { // 200 steps > 100
		t.Fatal("travel limit should trip")
	}
}

func TestStepperStrainAndReset(t *testing.T) {
	s := NewStepperBeam("mini", 1080, 1e-4, 1000)
	_, _ = s.Apply([]float64{0.01})
	if s.Strain() == 0 {
		t.Fatal("strain gauge reads zero at deflection")
	}
	_ = s.Reset()
	if s.Position() != 0 || s.Strain() != 0 {
		t.Fatal("reset did not zero rig")
	}
}

func TestFirstOrderKineticApproach(t *testing.T) {
	// Long dwell: position effectively reaches the target.
	f := NewFirstOrderKinetic("sim", 1080, 0.05, 1.0)
	out, err := f.Apply([]float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-10.8) > 0.01 {
		t.Fatalf("force = %g, want ~10.8", out[0])
	}
	// Short dwell: visible first-order undershoot.
	u := NewFirstOrderKinetic("sim", 1080, 0.05, 0.05) // one time constant
	out, _ = u.Apply([]float64{0.01})
	want := 1080 * 0.01 * (1 - math.Exp(-1))
	if math.Abs(out[0]-want) > 0.01 {
		t.Fatalf("undershoot force = %g, want %g", out[0], want)
	}
}

func TestFirstOrderKineticReset(t *testing.T) {
	f := NewFirstOrderKinetic("sim", 1080, 0.05, 1.0)
	_, _ = f.Apply([]float64{0.01})
	_ = f.Reset()
	if f.Position() != 0 {
		t.Fatal("reset failed")
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewStepperBeam("x", 1, 0, 10) },
		func() { NewStepperBeam("x", 1, 1e-4, 0) },
		func() { NewFirstOrderKinetic("x", 0, 1, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestParseReadingRefusesNonFinite: a READ reply that strconv reads as NaN or
// Inf is refused where it arrives, naming the reply, instead of reaching the
// integrator as a force.
func TestParseReadingRefusesNonFinite(t *testing.T) {
	for _, reply := range []string{"NaN 1", "0.01 +Inf", "-Inf 0", "inf nan"} {
		if _, _, err := parseReading(reply); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", reply)) {
			t.Errorf("%q: err = %v, want a refusal quoting the reply", reply, err)
		}
	}
	if pos, force, err := parseReading("0.01 1250.5"); err != nil || pos != 0.01 || force != 1250.5 {
		t.Fatalf("finite reply: %v %v %v", pos, force, err)
	}
}

// roundTrip sends one command line and returns its response's payload.
func (c *ShoreWesternClient) roundTrip(cmd string) (string, error) {
	var reply [1]string
	err := c.exchange(context.Background(), cmd+"\n", reply[:])
	return reply[0], err
}

// Read returns position and force.
func (c *ShoreWesternClient) Read() (pos, force float64, err error) {
	resp, err := c.roundTrip("READ")
	if err != nil {
		return 0, 0, err
	}
	return parseReading(resp)
}

// Stop trips the controller's interlock.
func (c *ShoreWesternClient) Stop() error {
	_, err := c.roundTrip("STOP")
	return err
}

// Reset re-zeros the rig.
func (c *ShoreWesternClient) Reset() error {
	_, err := c.roundTrip("RESET")
	return err
}

// Clear re-arms the interlock.
func (c *ShoreWesternClient) Clear() error {
	_, err := c.roundTrip("CLEAR")
	return err
}

// Ping checks liveness.
func (c *ShoreWesternClient) Ping() error {
	_, err := c.roundTrip("PING")
	return err
}

// Position returns the current simulated position.
func (f *FirstOrderKinetic) Position() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos
}

// Moves returns how many move commands were executed.
func (s *StepperBeam) Moves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.moves
}

// Applied reports how many commands the target executed.
func (x *XPCTarget) Applied() int {
	return int(x.applied.Load())
}

// Regression: a server started after Close bound a new listener, reset the
// first connection to it and leaked the listener.
func TestShoreWesternStartAfterCloseFails(t *testing.T) {
	srv := NewShoreWesternServer(NewColumnRig("uiuc", quietActuator(), 1000, 0, 0))
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if addr, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatalf("a closed server started again on %s", addr)
	}
}
