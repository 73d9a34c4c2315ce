// Package structural implements the structural-dynamics substrate used by
// the MS-PSDS (Multi-Site Pseudo-dynamic Substructure) method of the MOST
// experiment: element models with hysteresis, mass/damping assembly, explicit
// time integrators, and substructure decomposition.
//
// The package is deliberately self-contained linear algebra over small dense
// matrices (experiments in the paper have a handful of degrees of freedom),
// so it has no dependencies outside the standard library.
package structural

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a small dense row-major matrix. The structural models in MOST
// have very few degrees of freedom (the test frame reduces to 1-4 story
// DOFs), so a simple dense representation is both adequate and fast.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("structural: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Diagonal returns a square matrix with the given diagonal entries.
func Diagonal(diag []float64) *Matrix {
	m := NewMatrix(len(diag), len(diag))
	for i, v := range diag {
		m.Set(i, i, v)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by s and returns m for chaining.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMatrix accumulates s*other into m. Shapes must match.
func (m *Matrix) AddMatrix(other *Matrix, s float64) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("structural: AddMatrix shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * other.Data[i]
	}
	return m
}

// MulVec computes m·v into a fresh slice.
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic("structural: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// ErrSingular is returned when a solve encounters a (numerically) singular
// coefficient matrix.
var ErrSingular = errors.New("structural: singular matrix")

// Solve solves m·x = b by Gaussian elimination with partial pivoting.
// m is not modified.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("structural: Solve requires square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if len(b) != m.Rows {
		return nil, fmt.Errorf("structural: Solve rhs length %d != %d", len(b), m.Rows)
	}
	n := m.Rows
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a.Data[col*n+j], a.Data[pivot*n+j] = a.Data[pivot*n+j], a.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Add(r, j, -f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// VecAdd returns a + s*b.
func VecAdd(a []float64, b []float64, s float64) []float64 {
	if len(a) != len(b) {
		panic("structural: VecAdd length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + s*b[i]
	}
	return out
}
