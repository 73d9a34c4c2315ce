package structural

import (
	"fmt"
	"sync"
)

// Substructure is the pseudo-dynamic view of one piece of a decomposed test
// structure: impose boundary displacements, get back measured restoring
// forces. In MOST the left column (UIUC), right column (CU), and middle
// frame (NCSA) were each one Substructure. Physical rigs, rig emulations,
// and numerical models all satisfy this interface — the same property that
// NTCP gives at the protocol level ("a physical experiment and a
// computational simulation are indistinguishable").
type Substructure interface {
	// Name identifies the substructure (e.g. "uiuc-left-column").
	Name() string
	// NDOF returns the number of boundary degrees of freedom.
	NDOF() int
	// Apply imposes the displacement vector (meters) and returns the
	// restoring forces (newtons) measured at the boundary DOFs.
	Apply(d []float64) ([]float64, error)
	// Reset returns the substructure to its virgin state.
	Reset() error
}

// ElementSubstructure is a numerical substructure backed by element models,
// one element per boundary DOF (adequate for the story-drift models used in
// MOST and Mini-MOST). It is safe for concurrent use.
type ElementSubstructure struct {
	name string

	mu       sync.Mutex
	elements []Element
}

// NewElementSubstructure builds a numerical substructure from per-DOF
// elements.
func NewElementSubstructure(name string, elements ...Element) *ElementSubstructure {
	if len(elements) == 0 {
		panic("structural: substructure needs at least one element")
	}
	return &ElementSubstructure{name: name, elements: elements}
}

func (s *ElementSubstructure) Name() string { return s.name }
func (s *ElementSubstructure) NDOF() int    { return len(s.elements) }

// Apply imposes d and returns element restoring forces.
func (s *ElementSubstructure) Apply(d []float64) ([]float64, error) {
	if len(d) != len(s.elements) {
		return nil, fmt.Errorf("structural: substructure %s expects %d dofs, got %d", s.name, len(s.elements), len(d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := make([]float64, len(d))
	for i, e := range s.elements {
		f[i] = e.Restore(d[i])
	}
	return f, nil
}

// Reset restores every element to its virgin state.
func (s *ElementSubstructure) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.elements {
		e.Reset()
	}
	return nil
}

// Binding attaches a substructure's local DOFs to global model DOFs.
type Binding struct {
	Sub  Substructure
	DOFs []int // DOFs[i] = global index of the substructure's local DOF i
}

// Assembly couples substructures into one global restoring-force function —
// the structural heart of the MS-PSDS method: the coordinator computes
// global displacements, each substructure receives its share, and the
// measured forces are scattered back into the global vector.
type Assembly struct {
	NDOF     int
	Bindings []Binding
}

// NewAssembly validates DOF maps and returns the assembly.
func NewAssembly(ndof int, bindings ...Binding) (*Assembly, error) {
	if ndof <= 0 {
		return nil, fmt.Errorf("structural: assembly needs at least one DOF")
	}
	for _, b := range bindings {
		if b.Sub == nil {
			return nil, fmt.Errorf("structural: nil substructure in assembly")
		}
		if len(b.DOFs) != b.Sub.NDOF() {
			return nil, fmt.Errorf("structural: substructure %s has %d dofs, binding maps %d",
				b.Sub.Name(), b.Sub.NDOF(), len(b.DOFs))
		}
		for _, g := range b.DOFs {
			if g < 0 || g >= ndof {
				return nil, fmt.Errorf("structural: substructure %s maps to out-of-range global dof %d", b.Sub.Name(), g)
			}
		}
	}
	return &Assembly{NDOF: ndof, Bindings: bindings}, nil
}

// Restore imposes the global displacement vector on every substructure
// (gather → Apply → scatter) and returns the assembled restoring force.
// Substructures are invoked sequentially; distributed parallel invocation is
// the coordinator's job (internal/coord), which replaces this method with
// NTCP transactions.
func (a *Assembly) Restore(d []float64) ([]float64, error) {
	if len(d) != a.NDOF {
		return nil, fmt.Errorf("structural: assembly expects %d dofs, got %d", a.NDOF, len(d))
	}
	f := make([]float64, a.NDOF)
	for _, b := range a.Bindings {
		local := make([]float64, len(b.DOFs))
		for i, g := range b.DOFs {
			local[i] = d[g]
		}
		lf, err := b.Sub.Apply(local)
		if err != nil {
			return nil, fmt.Errorf("structural: substructure %s: %w", b.Sub.Name(), err)
		}
		if len(lf) != len(b.DOFs) {
			return nil, fmt.Errorf("structural: substructure %s returned %d forces for %d dofs",
				b.Sub.Name(), len(lf), len(b.DOFs))
		}
		for i, g := range b.DOFs {
			f[g] += lf[i]
		}
	}
	return f, nil
}
