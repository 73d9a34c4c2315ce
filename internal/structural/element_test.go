package structural

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearElastic(t *testing.T) {
	e := NewLinearElastic(100)
	if f := e.Restore(0.5); f != 50 {
		t.Fatalf("Restore(0.5) = %g, want 50", f)
	}
	if f := e.Peek(-0.1); !almostEq(f, -10, 1e-15) {
		t.Fatalf("Peek(-0.1) = %g, want -10", f)
	}
	if e.Stiffness() != 100 || e.InitialStiffness() != 100 {
		t.Fatal("stiffness mismatch")
	}
}

func TestBilinearElasticRange(t *testing.T) {
	e := NewBilinear(1000, 10, 0.1) // yields at d = 0.01
	if f := e.Restore(0.005); !almostEq(f, 5, 1e-12) {
		t.Fatalf("pre-yield force = %g, want 5", f)
	}
	if e.Stiffness() != 1000 {
		t.Fatalf("pre-yield tangent = %g, want 1000", e.Stiffness())
	}
}

func TestBilinearYield(t *testing.T) {
	e := NewBilinear(1000, 10, 0.1)
	f := e.Restore(0.02) // twice the yield displacement
	// Post-yield: f = alpha*k*d + (1-alpha)*Fy = 0.1*1000*0.02 + 0.9*10 = 11.
	if !almostEq(f, 11, 1e-12) {
		t.Fatalf("post-yield force = %g, want 11", f)
	}
	if !almostEq(e.Stiffness(), 100, 1e-12) {
		t.Fatalf("post-yield tangent = %g, want 100", e.Stiffness())
	}
}

func TestBilinearUnloadingIsElastic(t *testing.T) {
	e := NewBilinear(1000, 10, 0.1)
	fTop := e.Restore(0.02)
	fBack := e.Restore(0.019) // small unload: elastic slope
	if !almostEq(fTop-fBack, 1000*0.001, 1e-9) {
		t.Fatalf("unloading slope wrong: df = %g", fTop-fBack)
	}
	if e.Stiffness() != 1000 {
		t.Fatalf("unloading tangent = %g, want 1000", e.Stiffness())
	}
}

func TestBilinearPeekDoesNotMutate(t *testing.T) {
	e := NewBilinear(1000, 10, 0.1)
	e.Restore(0.005)
	p := e.Peek(0.03)
	f := e.Restore(0.005) // unchanged state: same force as before
	if !almostEq(f, 5, 1e-12) {
		t.Fatalf("Peek mutated state: Restore(0.005) = %g after Peek", f)
	}
	if p <= f {
		t.Fatalf("Peek(0.03) = %g should exceed Restore(0.005) = %g", p, f)
	}
}

func TestBilinearHysteresisDissipatesEnergy(t *testing.T) {
	e := NewBilinear(1000, 10, 0.05)
	// One full cycle well past yield.
	amp := 0.05
	var energy float64
	prevD, prevF := 0.0, 0.0
	for i := 1; i <= 400; i++ {
		d := amp * math.Sin(2*math.Pi*float64(i)/400)
		f := e.Restore(d)
		energy += (f + prevF) / 2 * (d - prevD)
		prevD, prevF = d, f
	}
	if energy <= 0 {
		t.Fatalf("cyclic energy = %g, want positive dissipation", energy)
	}
}

func TestBilinearReset(t *testing.T) {
	e := NewBilinear(1000, 10, 0.1)
	e.Restore(0.05)
	e.Reset()
	if f := e.Restore(0.005); !almostEq(f, 5, 1e-12) {
		t.Fatalf("after Reset, Restore(0.005) = %g, want 5", f)
	}
}

// Property: bilinear force never exceeds the hardening envelope
// |f| <= alpha*k*|d| + (1-alpha)*Fy.
func TestBilinearForceBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewBilinear(1000, 10, 0.1)
		d := 0.0
		for i := 0; i < 200; i++ {
			d += rng.NormFloat64() * 0.01
			fr := e.Restore(d)
			bound := 0.1*1000*math.Abs(d) + 0.9*10 + 1e-9
			if math.Abs(fr) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnStiffnessFormulas(t *testing.T) {
	k3 := CantileverColumnStiffness(200e9, 2e-5, 2.5)
	if !almostEq(k3, 3*200e9*2e-5/(2.5*2.5*2.5), 1e-6) {
		t.Fatalf("cantilever stiffness = %g", k3)
	}
	k12 := FixedFixedColumnStiffness(200e9, 2e-5, 2.5)
	if !almostEq(k12, 4*k3, 1e-6) {
		t.Fatalf("fixed-fixed should be 4x cantilever, got %g vs %g", k12, k3)
	}
}

func TestInvalidElementParamsPanic(t *testing.T) {
	cases := []func(){
		func() { NewLinearElastic(0) },
		func() { NewBilinear(0, 1, 0.1) },
		func() { NewBilinear(1, 0, 0.1) },
		func() { NewBilinear(1, 1, 1.0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// FixedFixedColumnStiffness returns 12EI/L³, the lateral stiffness of a
// column fixed against rotation at both ends.
func FixedFixedColumnStiffness(e, i, l float64) float64 {
	return 12 * e * i / (l * l * l)
}
