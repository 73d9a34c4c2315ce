package structural

import (
	"fmt"
)

// RestoringFunc imposes a displacement vector on the (possibly distributed)
// structure and returns the measured restoring forces. In a local run this
// is Assembly.Restore; in a distributed run the MS-PSDS coordinator supplies
// a function that issues NTCP transactions to every site.
type RestoringFunc func(d []float64) ([]float64, error)

// System is the equation of motion M·a + C·v + R(d) = p(t) in pseudo-dynamic
// form: M and C are numerical, R is imposed/measured.
type System struct {
	M *Matrix       // mass matrix
	C *Matrix       // viscous damping matrix (may be nil for undamped)
	K *Matrix       // initial stiffness matrix (required by AlphaOS, else optional)
	R RestoringFunc // restoring force via imposed displacements
}

func (s *System) validate() error {
	if s.M == nil || s.M.Rows != s.M.Cols {
		return fmt.Errorf("structural: system needs a square mass matrix")
	}
	n := s.M.Rows
	if s.C != nil && (s.C.Rows != n || s.C.Cols != n) {
		return fmt.Errorf("structural: damping matrix shape mismatch")
	}
	if s.K != nil && (s.K.Rows != n || s.K.Cols != n) {
		return fmt.Errorf("structural: stiffness matrix shape mismatch")
	}
	if s.R == nil {
		return fmt.Errorf("structural: system needs a restoring function")
	}
	return nil
}

func (s *System) damping() *Matrix {
	if s.C != nil {
		return s.C
	}
	return NewMatrix(s.M.Rows, s.M.Cols)
}

// State is the integrator output at one time step.
type State struct {
	Step int
	T    float64
	D    []float64 // displacement imposed this step
	V    []float64 // velocity
	A    []float64 // acceleration
	F    []float64 // measured restoring force
}

func cloneState(s State) State {
	c := s
	c.D = append([]float64(nil), s.D...)
	c.V = append([]float64(nil), s.V...)
	c.A = append([]float64(nil), s.A...)
	c.F = append([]float64(nil), s.F...)
	return c
}

// Integrator advances the hybrid equation of motion one step at a time.
// Implementations are explicit (pseudo-dynamic tests cannot iterate on a
// physical specimen within one step).
type Integrator interface {
	// Init establishes the initial state with external load p0.
	Init(sys *System, dt float64, d0, v0, p0 []float64) (State, error)
	// Step advances to t_{n+1} with external load p at t_{n+1}.
	Step(p []float64) (State, error)
	// Name identifies the scheme (for experiment metadata).
	Name() string
}

// ---------------------------------------------------------------------------
// Explicit Newmark (β = 0, γ = ½) — the central-difference family used in
// classical pseudo-dynamic testing.
// ---------------------------------------------------------------------------

// ExplicitNewmark implements Newmark-β with β = 0, γ = ½: displacement at
// the next step is fully determined by the current state, so the target
// displacement can be imposed on the (possibly remote) substructures before
// the forces are measured — the defining requirement of a PSD test.
type ExplicitNewmark struct {
	sys  *System
	dt   float64
	n    int
	mhat *Matrix // M + dt/2 C, factored per step via Solve
	st   State
}

// NewExplicitNewmark returns an explicit Newmark integrator.
func NewExplicitNewmark() *ExplicitNewmark { return &ExplicitNewmark{} }

func (in *ExplicitNewmark) Name() string { return "explicit-newmark" }

func (in *ExplicitNewmark) Init(sys *System, dt float64, d0, v0, p0 []float64) (State, error) {
	if err := sys.validate(); err != nil {
		return State{}, err
	}
	if dt <= 0 {
		return State{}, fmt.Errorf("structural: non-positive dt %g", dt)
	}
	n := sys.M.Rows
	if len(d0) != n || len(v0) != n || len(p0) != n {
		return State{}, fmt.Errorf("structural: initial condition length mismatch (want %d)", n)
	}
	in.sys, in.dt, in.n = sys, dt, n
	in.mhat = sys.M.Clone().AddMatrix(sys.damping(), dt/2)

	f0, err := sys.R(d0)
	if err != nil {
		return State{}, fmt.Errorf("structural: initial restore: %w", err)
	}
	// M a0 = p0 - C v0 - f0
	rhs := make([]float64, n)
	cv := sys.damping().MulVec(v0)
	for i := 0; i < n; i++ {
		rhs[i] = p0[i] - cv[i] - f0[i]
	}
	a0, err := sys.M.Solve(rhs)
	if err != nil {
		return State{}, fmt.Errorf("structural: initial acceleration: %w", err)
	}
	in.st = State{Step: 0, T: 0,
		D: append([]float64(nil), d0...),
		V: append([]float64(nil), v0...),
		A: a0, F: f0}
	return cloneState(in.st), nil
}

func (in *ExplicitNewmark) Step(p []float64) (State, error) {
	if in.sys == nil {
		return State{}, fmt.Errorf("structural: integrator not initialized")
	}
	if len(p) != in.n {
		return State{}, fmt.Errorf("structural: load length %d != %d", len(p), in.n)
	}
	dt := in.dt
	cur := in.st

	// Target displacement (β = 0): d_{n+1} = d_n + dt v_n + dt²/2 a_n.
	d1 := make([]float64, in.n)
	for i := 0; i < in.n; i++ {
		d1[i] = cur.D[i] + dt*cur.V[i] + dt*dt/2*cur.A[i]
	}
	f1, err := in.sys.R(d1)
	if err != nil {
		return State{}, err
	}
	// Predictor velocity ṽ = v_n + dt/2 a_n; (M + dt/2 C) a_{n+1} = p - f1 - C ṽ.
	vp := make([]float64, in.n)
	for i := 0; i < in.n; i++ {
		vp[i] = cur.V[i] + dt/2*cur.A[i]
	}
	cvp := in.sys.damping().MulVec(vp)
	rhs := make([]float64, in.n)
	for i := 0; i < in.n; i++ {
		rhs[i] = p[i] - f1[i] - cvp[i]
	}
	a1, err := in.mhat.Solve(rhs)
	if err != nil {
		return State{}, err
	}
	v1 := make([]float64, in.n)
	for i := 0; i < in.n; i++ {
		v1[i] = vp[i] + dt/2*a1[i]
	}
	in.st = State{Step: cur.Step + 1, T: cur.T + dt, D: d1, V: v1, A: a1, F: f1}
	return cloneState(in.st), nil
}

// ---------------------------------------------------------------------------
// α-OS — the HHT-α operator-splitting scheme used for MOST-class hybrid
// tests: unconditionally stable for linear substructures, explicit in the
// imposed displacement (only the predictor displacement reaches the rig).
// ---------------------------------------------------------------------------

// AlphaOS implements the α operator-splitting method (Combescure & Pegon).
// alpha ∈ [-1/3, 0]; alpha = 0 reduces to the OS-Newmark average-acceleration
// scheme. The measured force at the predictor displacement is corrected with
// the initial-stiffness term K·(d_{n+1} − d̃_{n+1}), which never requires
// re-imposing a displacement on the physical specimen.
type AlphaOS struct {
	Alpha float64

	sys         *System
	dt          float64
	n           int
	beta, gamma float64
	mhat        *Matrix
	st          State
	ftilde      []float64 // measured force at predictor of current state
	dtilde      []float64 // predictor displacement of current state
	pPrev       []float64
}

// NewAlphaOS returns an α-OS integrator; alpha must lie in [-1/3, 0].
func NewAlphaOS(alpha float64) (*AlphaOS, error) {
	if alpha < -1.0/3 || alpha > 0 {
		return nil, fmt.Errorf("structural: alpha %g outside [-1/3, 0]", alpha)
	}
	return &AlphaOS{Alpha: alpha}, nil
}

func (in *AlphaOS) Name() string { return fmt.Sprintf("alpha-os(%.3g)", in.Alpha) }

func (in *AlphaOS) Init(sys *System, dt float64, d0, v0, p0 []float64) (State, error) {
	if err := sys.validate(); err != nil {
		return State{}, err
	}
	if sys.K == nil {
		return State{}, fmt.Errorf("structural: alpha-OS requires the initial stiffness matrix")
	}
	if dt <= 0 {
		return State{}, fmt.Errorf("structural: non-positive dt %g", dt)
	}
	n := sys.M.Rows
	if len(d0) != n || len(v0) != n || len(p0) != n {
		return State{}, fmt.Errorf("structural: initial condition length mismatch (want %d)", n)
	}
	in.sys, in.dt, in.n = sys, dt, n
	in.beta = (1 - in.Alpha) * (1 - in.Alpha) / 4
	in.gamma = 0.5 - in.Alpha

	// M̂ = M + (1+α)γΔt·C + (1+α)βΔt²·K
	in.mhat = sys.M.Clone().
		AddMatrix(sys.damping(), (1+in.Alpha)*in.gamma*dt).
		AddMatrix(sys.K, (1+in.Alpha)*in.beta*dt*dt)

	f0, err := sys.R(d0)
	if err != nil {
		return State{}, fmt.Errorf("structural: initial restore: %w", err)
	}
	cv := sys.damping().MulVec(v0)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rhs[i] = p0[i] - cv[i] - f0[i]
	}
	a0, err := sys.M.Solve(rhs)
	if err != nil {
		return State{}, fmt.Errorf("structural: initial acceleration: %w", err)
	}
	in.st = State{Step: 0, T: 0,
		D: append([]float64(nil), d0...),
		V: append([]float64(nil), v0...),
		A: a0, F: f0}
	in.ftilde = append([]float64(nil), f0...)
	in.dtilde = append([]float64(nil), d0...)
	in.pPrev = append([]float64(nil), p0...)
	return cloneState(in.st), nil
}

func (in *AlphaOS) Step(p []float64) (State, error) {
	if in.sys == nil {
		return State{}, fmt.Errorf("structural: integrator not initialized")
	}
	if len(p) != in.n {
		return State{}, fmt.Errorf("structural: load length %d != %d", len(p), in.n)
	}
	dt, n := in.dt, in.n
	cur := in.st
	a, g, b := in.Alpha, in.gamma, in.beta

	// Predictors.
	dp := make([]float64, n)
	vp := make([]float64, n)
	for i := 0; i < n; i++ {
		dp[i] = cur.D[i] + dt*cur.V[i] + dt*dt*(0.5-b)*cur.A[i]
		vp[i] = cur.V[i] + dt*(1-g)*cur.A[i]
	}
	// Impose predictor displacement; measure force.
	fp, err := in.sys.R(dp)
	if err != nil {
		return State{}, err
	}

	// Equilibrium at weighted time:
	// M a₁ + (1+α)(C v₁ + r₁) − α(C v₀ + r₀) = (1+α)p₁ − α p₀
	// r₁ = f̃₁ + K(d₁ − d̃₁) = f̃₁ + K β dt² a₁, v₁ = ṽ₁ + γ dt a₁.
	cvp := in.sys.damping().MulVec(vp)
	cv0 := in.sys.damping().MulVec(cur.V)
	// r₀ at the corrected d₀ is f̃₀ + K(d₀ − d̃₀).
	r0 := make([]float64, n)
	kd0 := in.sys.K.MulVec(VecAdd(cur.D, in.dtilde, -1))
	for i := 0; i < n; i++ {
		r0[i] = in.ftilde[i] + kd0[i]
	}
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		rhs[i] = (1+a)*p[i] - a*in.pPrev[i] - (1+a)*(cvp[i]+fp[i]) + a*(cv0[i]+r0[i])
	}
	a1, err := in.mhat.Solve(rhs)
	if err != nil {
		return State{}, err
	}
	d1 := make([]float64, n)
	v1 := make([]float64, n)
	for i := 0; i < n; i++ {
		d1[i] = dp[i] + b*dt*dt*a1[i]
		v1[i] = vp[i] + g*dt*a1[i]
	}
	in.st = State{Step: cur.Step + 1, T: cur.T + dt, D: d1, V: v1, A: a1, F: fp}
	in.ftilde = fp
	in.dtilde = dp
	in.pPrev = append(in.pPrev[:0], p...)
	return cloneState(in.st), nil
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// GroundLoad converts a ground acceleration üg into the effective load
// vector p = −M·ι·üg, with ι the influence vector (1 for every DOF excited
// by horizontal ground motion).
func GroundLoad(m *Matrix, iota []float64, ag float64) []float64 {
	p := m.MulVec(iota)
	for i := range p {
		p[i] *= -ag
	}
	return p
}

// Ones returns an n-vector of ones (the usual influence vector).
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// RayleighDamping returns C = a0·M + a1·K with coefficients chosen to give
// damping ratio zeta at circular frequencies w1 and w2.
func RayleighDamping(m, k *Matrix, zeta, w1, w2 float64) *Matrix {
	a0 := zeta * 2 * w1 * w2 / (w1 + w2)
	a1 := zeta * 2 / (w1 + w2)
	return m.Clone().Scale(a0).AddMatrix(k, a1)
}
