package structural

import (
	"strings"
	"sync"
	"testing"
)

func TestElementSubstructureApply(t *testing.T) {
	s := NewElementSubstructure("s", NewLinearElastic(10), NewLinearElastic(20))
	f, err := s.Apply([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 10 || f[1] != 40 {
		t.Fatalf("Apply = %v, want [10 40]", f)
	}
	if s.NDOF() != 2 || s.Name() != "s" {
		t.Fatal("metadata mismatch")
	}
}

func TestElementSubstructureDimensionCheck(t *testing.T) {
	s := NewElementSubstructure("s", NewLinearElastic(10))
	if _, err := s.Apply([]float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestElementSubstructureReset(t *testing.T) {
	s := NewElementSubstructure("s", NewBilinear(1000, 10, 0.1))
	if _, err := s.Apply([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	f, err := s.Apply([]float64{0.005})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f[0], 5, 1e-12) {
		t.Fatalf("after reset force = %g, want 5", f[0])
	}
}

func TestElementSubstructureConcurrentApply(t *testing.T) {
	s := NewElementSubstructure("s", NewLinearElastic(10))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := s.Apply([]float64{0.01}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestElementSubstructureInitialStiffness(t *testing.T) {
	s := NewElementSubstructure("s", NewBilinear(1000, 10, 0.1), NewLinearElastic(50))
	k := s.InitialStiffness()
	if k.At(0, 0) != 1000 || k.At(1, 1) != 50 || k.At(0, 1) != 0 {
		t.Fatalf("InitialStiffness = %v", k.Data)
	}
}

func TestAssemblyRestore(t *testing.T) {
	left := NewElementSubstructure("left", NewLinearElastic(10))
	mid := NewElementSubstructure("mid", NewLinearElastic(20))
	a, err := NewAssembly(1,
		Binding{Sub: left, DOFs: []int{0}},
		Binding{Sub: mid, DOFs: []int{0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Restore([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 60 { // (10+20)*2
		t.Fatalf("Restore = %v, want [60]", f)
	}
}

func TestAssemblyMultiDOFScatter(t *testing.T) {
	// Two global DOFs; one substructure spans both, another only DOF 1.
	span := NewElementSubstructure("span", NewLinearElastic(10), NewLinearElastic(10))
	one := NewElementSubstructure("one", NewLinearElastic(5))
	a, err := NewAssembly(2,
		Binding{Sub: span, DOFs: []int{0, 1}},
		Binding{Sub: one, DOFs: []int{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Restore([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 10 || f[1] != 30 { // span contributes 20 at DOF 1, one adds 5*2
		t.Fatalf("Restore = %v, want [10 30]", f)
	}
}

func TestAssemblyValidation(t *testing.T) {
	s := NewElementSubstructure("s", NewLinearElastic(1))
	if _, err := NewAssembly(0); err == nil {
		t.Fatal("zero DOFs should fail")
	}
	if _, err := NewAssembly(1, Binding{Sub: nil}); err == nil {
		t.Fatal("nil substructure should fail")
	}
	if _, err := NewAssembly(1, Binding{Sub: s, DOFs: []int{5}}); err == nil {
		t.Fatal("out-of-range DOF should fail")
	}
	if _, err := NewAssembly(1, Binding{Sub: s, DOFs: []int{0, 0}}); err == nil {
		t.Fatal("DOF count mismatch should fail")
	}
}

type failingSub struct{ name string }

func (f *failingSub) Name() string                         { return f.name }
func (f *failingSub) NDOF() int                            { return 1 }
func (f *failingSub) Apply(d []float64) ([]float64, error) { return nil, errBoom }
func (f *failingSub) Reset() error                         { return nil }

var errBoom = &subError{"boom"}

type subError struct{ msg string }

func (e *subError) Error() string { return e.msg }

func TestAssemblyPropagatesSubstructureError(t *testing.T) {
	a, err := NewAssembly(1, Binding{Sub: &failingSub{"bad"}, DOFs: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Restore([]float64{0})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("expected wrapped error naming the substructure, got %v", err)
	}
}

func TestBindingGatherScatter(t *testing.T) {
	b := Binding{DOFs: []int{2, 0}}
	local := b.Gather([]float64{10, 20, 30})
	if local[0] != 30 || local[1] != 10 {
		t.Fatalf("Gather = %v", local)
	}
	global := make([]float64, 3)
	b.Scatter([]float64{1, 2}, global)
	if global[0] != 2 || global[2] != 1 {
		t.Fatalf("Scatter = %v", global)
	}
}

// Gather extracts the local displacement vector for one binding from the
// global vector.
func (b Binding) Gather(global []float64) []float64 {
	local := make([]float64, len(b.DOFs))
	for i, g := range b.DOFs {
		local[i] = global[g]
	}
	return local
}

// Scatter accumulates local forces into the global vector.
func (b Binding) Scatter(local, global []float64) {
	for i, g := range b.DOFs {
		global[g] += local[i]
	}
}

// InitialStiffness returns the diagonal initial-stiffness matrix of the
// substructure (used to assemble the α-OS initial stiffness).
func (s *ElementSubstructure) InitialStiffness() *Matrix {
	k := NewMatrix(len(s.elements), len(s.elements))
	for i, e := range s.elements {
		k.Set(i, i, e.InitialStiffness())
	}
	return k
}
