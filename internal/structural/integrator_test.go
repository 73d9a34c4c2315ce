package structural

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sdofSystem builds a linear single-DOF system m=1, k, zeta viscous damping.
func sdofSystem(k, zeta float64) *System {
	m := Diagonal([]float64{1})
	kk := Diagonal([]float64{k})
	el := NewLinearElastic(k)
	var c *Matrix
	if zeta > 0 {
		w := math.Sqrt(k)
		c = Diagonal([]float64{2 * zeta * w})
	}
	return &System{M: m, C: c, K: kk, R: func(d []float64) ([]float64, error) {
		return []float64{el.Restore(d[0])}, nil
	}}
}

// freeVibration integrates free vibration from d0=1, v0=0 and compares the
// trajectory with the analytic damped-cosine solution.
func freeVibration(t *testing.T, in Integrator, k, zeta, dt float64, steps int, tol float64) {
	t.Helper()
	sys := sdofSystem(k, zeta)
	st, err := in.Init(sys, dt, []float64{1}, []float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	w := math.Sqrt(k)
	wd := w * math.Sqrt(1-zeta*zeta)
	maxErr := 0.0
	for s := 1; s <= steps; s++ {
		st, err = in.Step([]float64{0})
		if err != nil {
			t.Fatal(err)
		}
		tm := st.T
		exact := math.Exp(-zeta*w*tm) * (math.Cos(wd*tm) + zeta*w/wd*math.Sin(wd*tm))
		if e := math.Abs(st.D[0] - exact); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > tol {
		t.Fatalf("%s: max displacement error %g > %g", in.Name(), maxErr, tol)
	}
}

func TestExplicitNewmarkFreeVibration(t *testing.T) {
	// w = 2*pi (T = 1 s), dt = T/200 -> tight agreement expected.
	k := 4 * math.Pi * math.Pi
	freeVibration(t, NewExplicitNewmark(), k, 0, 0.005, 400, 2e-3)
}

func TestExplicitNewmarkDampedFreeVibration(t *testing.T) {
	k := 4 * math.Pi * math.Pi
	freeVibration(t, NewExplicitNewmark(), k, 0.05, 0.005, 400, 2e-3)
}

func TestAlphaOSFreeVibration(t *testing.T) {
	k := 4 * math.Pi * math.Pi
	in, err := NewAlphaOS(-0.05)
	if err != nil {
		t.Fatal(err)
	}
	freeVibration(t, in, k, 0.02, 0.005, 400, 5e-3)
}

func TestAlphaOSZeroAlphaFreeVibration(t *testing.T) {
	k := 4 * math.Pi * math.Pi
	in, err := NewAlphaOS(0)
	if err != nil {
		t.Fatal(err)
	}
	freeVibration(t, in, k, 0, 0.005, 400, 5e-3)
}

func TestAlphaOSRejectsBadAlpha(t *testing.T) {
	if _, err := NewAlphaOS(-0.5); err == nil {
		t.Fatal("alpha = -0.5 should be rejected")
	}
	if _, err := NewAlphaOS(0.1); err == nil {
		t.Fatal("alpha = 0.1 should be rejected")
	}
}

func TestAlphaOSRequiresStiffness(t *testing.T) {
	in, _ := NewAlphaOS(-0.1)
	sys := sdofSystem(10, 0)
	sys.K = nil
	if _, err := in.Init(sys, 0.01, []float64{0}, []float64{0}, []float64{0}); err == nil {
		t.Fatal("expected error without initial stiffness")
	}
}

func TestExplicitNewmarkStabilityLimit(t *testing.T) {
	// Past the central-difference stability limit dt > 2/w the explicit
	// scheme must blow up; just inside it must stay bounded.
	k := 100.0 // w = 10, limit dt = 0.2
	grow := func(dt float64, steps int) float64 {
		sys := sdofSystem(k, 0)
		in := NewExplicitNewmark()
		st, err := in.Init(sys, dt, []float64{1}, []float64{0}, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		peak := 0.0
		for s := 0; s < steps; s++ {
			st, err = in.Step([]float64{0})
			if err != nil {
				t.Fatal(err)
			}
			if a := math.Abs(st.D[0]); a > peak {
				peak = a
			}
		}
		return peak
	}
	if p := grow(0.19, 500); p > 2 {
		t.Fatalf("inside stability limit: peak %g should stay ~1", p)
	}
	if p := grow(0.21, 500); p < 100 {
		t.Fatalf("outside stability limit: peak %g should diverge", p)
	}
}

func TestAlphaOSStableBeyondExplicitLimit(t *testing.T) {
	// alpha-OS with linear substructures is unconditionally stable: run at
	// 3x the central-difference limit and stay bounded.
	k := 100.0
	in, _ := NewAlphaOS(-0.1)
	sys := sdofSystem(k, 0)
	st, err := in.Init(sys, 0.6, []float64{1}, []float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 500; s++ {
		st, err = in.Step([]float64{0})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.D[0]) > 5 {
			t.Fatalf("alpha-OS diverged at step %d: d = %g", s, st.D[0])
		}
	}
}

func TestStepBeforeInitFails(t *testing.T) {
	if _, err := NewExplicitNewmark().Step([]float64{0}); err == nil {
		t.Fatal("expected error stepping uninitialized integrator")
	}
	in, _ := NewAlphaOS(0)
	if _, err := in.Step([]float64{0}); err == nil {
		t.Fatal("expected error stepping uninitialized alpha-OS")
	}
}

func TestInitValidation(t *testing.T) {
	in := NewExplicitNewmark()
	sys := sdofSystem(10, 0)
	if _, err := in.Init(sys, -0.01, []float64{0}, []float64{0}, []float64{0}); err == nil {
		t.Fatal("negative dt should fail")
	}
	if _, err := in.Init(sys, 0.01, []float64{0, 0}, []float64{0}, []float64{0}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	bad := &System{M: Diagonal([]float64{1})}
	if _, err := in.Init(bad, 0.01, []float64{0}, []float64{0}, []float64{0}); err == nil {
		t.Fatal("missing restoring function should fail")
	}
}

func TestGroundLoad(t *testing.T) {
	m := Diagonal([]float64{2, 3})
	p := GroundLoad(m, Ones(2), 1.5)
	if p[0] != -3 || p[1] != -4.5 {
		t.Fatalf("GroundLoad = %v, want [-3 -4.5]", p)
	}
}

func TestRayleighDamping(t *testing.T) {
	m := Diagonal([]float64{1})
	k := Diagonal([]float64{100}) // w = 10
	c := RayleighDamping(m, k, 0.05, 10, 10)
	// At w1 = w2 = w the ratio is exactly zeta: c = 2*zeta*w*m.
	if !almostEq(c.At(0, 0), 2*0.05*10, 1e-12) {
		t.Fatalf("Rayleigh c = %g, want 1", c.At(0, 0))
	}
}

func TestStableDt(t *testing.T) {
	m := Diagonal([]float64{1, 1})
	k := Diagonal([]float64{100, 400}) // w = 10, 20 -> limit 0.1
	if got := StableDt(m, k); !almostEq(got, 0.1, 1e-12) {
		t.Fatalf("StableDt = %g, want 0.1", got)
	}
}

func TestTwoDOFFreeVibrationModal(t *testing.T) {
	// Two equal masses in a chain: k between ground-m1 and m1-m2.
	// Mode shapes are known; verify the symmetric mode frequency.
	k := 100.0
	kmat := NewMatrix(2, 2)
	kmat.Set(0, 0, 2*k)
	kmat.Set(0, 1, -k)
	kmat.Set(1, 0, -k)
	kmat.Set(1, 1, k)
	m := Diagonal([]float64{1, 1})
	sys := &System{M: m, K: kmat, R: func(d []float64) ([]float64, error) {
		return kmat.MulVec(d), nil
	}}
	in := NewExplicitNewmark()
	// First mode of the 2-DOF shear chain: w1^2 = k*(3-sqrt(5))/2.
	w1 := math.Sqrt(k * (3 - math.Sqrt(5)) / 2)
	phi := []float64{1, (3 + math.Sqrt(5)) / 2 * (2.0 / (3 + math.Sqrt(5)))} // recomputed below
	// Mode shape: (2k - w^2) x1 = k x2 -> x2/x1 = (2k - w1^2)/k.
	phi = []float64{1, (2*k - w1*w1) / k}
	st, err := in.Init(sys, 0.002, phi, []float64{0, 0}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for s := 1; s <= 1000; s++ {
		st, err = in.Step([]float64{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		exact0 := phi[0] * math.Cos(w1*st.T)
		if e := math.Abs(st.D[0] - exact0); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-3 {
		t.Fatalf("modal trajectory error %g", maxErr)
	}
}

// Property: undamped elastic free vibration conserves total mechanical
// energy (kinetic + strain) to within integrator tolerance over hundreds of
// steps, for random stiffness and initial conditions.
func TestEnergyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 10 + rng.Float64()*500
		d0 := (rng.Float64() - 0.5) * 0.2
		v0 := (rng.Float64() - 0.5) * 2
		if math.Abs(d0) < 1e-6 && math.Abs(v0) < 1e-6 {
			return true
		}
		w := math.Sqrt(k)
		dt := 0.02 / w // well inside stability
		sys := sdofSystem(k, 0)
		in := NewExplicitNewmark()
		st, err := in.Init(sys, dt, []float64{d0}, []float64{v0}, []float64{0})
		if err != nil {
			return false
		}
		e0 := 0.5*st.V[0]*st.V[0] + 0.5*k*st.D[0]*st.D[0]
		for s := 0; s < 400; s++ {
			st, err = in.Step([]float64{0})
			if err != nil {
				return false
			}
			e := 0.5*st.V[0]*st.V[0] + 0.5*k*st.D[0]*st.D[0]
			if math.Abs(e-e0) > 0.02*e0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with viscous damping and no load, energy never increases.
func TestDampedEnergyMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 10 + rng.Float64()*500
		zeta := 0.01 + rng.Float64()*0.2
		w := math.Sqrt(k)
		dt := 0.02 / w
		sys := sdofSystem(k, zeta)
		in := NewExplicitNewmark()
		st, err := in.Init(sys, dt, []float64{0.1}, []float64{0}, []float64{0})
		if err != nil {
			return false
		}
		prev := 0.5*st.V[0]*st.V[0] + 0.5*k*st.D[0]*st.D[0]
		for s := 0; s < 300; s++ {
			st, err = in.Step([]float64{0})
			if err != nil {
				return false
			}
			e := 0.5*st.V[0]*st.V[0] + 0.5*k*st.D[0]*st.D[0]
			if e > prev*(1+1e-6) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// StableDt returns the central-difference stability limit 2/ω_max estimated
// from the (diagonal) mass and initial stiffness: Δt < 2/√(k/m) per DOF.
func StableDt(m, k *Matrix) float64 {
	limit := math.Inf(1)
	for i := 0; i < m.Rows; i++ {
		mi, ki := m.At(i, i), k.At(i, i)
		if mi <= 0 || ki <= 0 {
			continue
		}
		if dt := 2 / math.Sqrt(ki/mi); dt < limit {
			limit = dt
		}
	}
	return limit
}
