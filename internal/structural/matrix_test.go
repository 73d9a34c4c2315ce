package structural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %g, want 6", got)
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestIdentityAndDiagonal(t *testing.T) {
	i3 := Identity(3)
	d := Diagonal([]float64{2, 3, 4})
	p := i3.Mul(d)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = []float64{2, 3, 4}[r]
			}
			if got := p.At(r, c); got != want {
				t.Fatalf("I*D at (%d,%d) = %g, want %g", r, c, got, want)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	v := m.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", v)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := m.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := m.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := m.Solve([]float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveDoesNotMutate(t *testing.T) {
	m := Diagonal([]float64{2, 4})
	before := append([]float64(nil), m.Data...)
	if _, err := m.Solve([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if m.Data[i] != before[i] {
			t.Fatal("Solve mutated its receiver")
		}
	}
}

func TestInverse(t *testing.T) {
	m := NewMatrix(3, 3)
	vals := [][]float64{{4, 1, 0}, {1, 5, 2}, {0, 2, 6}}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	p := m.Mul(inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p.At(i, j), want, 1e-10) {
				t.Fatalf("M*inv(M) at (%d,%d) = %g", i, j, p.At(i, j))
			}
		}
	}
}

// Property: for a random diagonally-dominant matrix, Solve(M, M·x) == x.
func TestSolveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			m.Set(i, i, rowSum+1) // diagonal dominance -> well conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := m.MulVec(x)
		got, err := m.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8*(1+math.Abs(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	s := VecAdd(a, b, 2)
	if s[0] != 7 || s[1] != 10 {
		t.Fatalf("VecAdd = %v", s)
	}
	if got := VecDot(a, b); got != 11 {
		t.Fatalf("VecDot = %g", got)
	}
	if got := VecNorm([]float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Fatalf("VecNorm = %g", got)
	}
	sc := VecScale(a, 3)
	if sc[0] != 3 || sc[1] != 6 {
		t.Fatalf("VecScale = %v", sc)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on MulVec shape mismatch")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Inverse returns m⁻¹ computed column-by-column via Solve.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("structural: Inverse requires square matrix")
	}
	n := m.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := m.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Mul returns the matrix product m·other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic("structural: Mul dimension mismatch")
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Add(i, j, a*other.At(k, j))
			}
		}
	}
	return out
}

// VecScale returns s*a.
func VecScale(a []float64, s float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = s * a[i]
	}
	return out
}

// VecNorm returns the Euclidean norm of a.
func VecNorm(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// VecDot returns a·b.
func VecDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("structural: VecDot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
