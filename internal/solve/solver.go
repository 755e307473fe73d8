package solve

import (
	"fmt"
	"slices"
	"strings"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// Solver solves A·x = b for one fixed matrix bound at construction, and is
// reusable — and safe for concurrent use — across right-hand sides. Any
// per-matrix setup (preconditioner factorization, dense factorization)
// happens once in New, which is what makes LUT builds and
// design-space sweeps with thousands of right-hand sides tractable.
type Solver interface {
	// Method returns the method name the solver was built under.
	Method() string
	// Solve returns x with A·x = b, with per-call tuning for the
	// iterative methods (direct methods ignore opt).
	Solve(b []float64, opt CGOptions) ([]float64, CGStats, error)
}

// Options selects and tunes a solver built by New.
type Options struct {
	// Method is one of Methods(): "cg-ic0", "cg-jacobi", or "cholesky".
	// Empty selects DefaultMethod.
	Method string
	// Workers bounds the worker pool the BLAS-1/SpMV kernels shard
	// across on large systems. <= 0 selects GOMAXPROCS. Results are
	// identical for every value (deterministic sharding).
	Workers int
	// CGOptions is the default per-call tuning passed to Solve by
	// callers that hold an Options rather than separate knobs.
	CGOptions
	// Obs, when non-nil, receives per-method solver metrics (solve and
	// iteration counts, iteration histogram, max residual, setup and
	// preconditioner-apply time) under "solve.<method>.*". Instrumented
	// and uninstrumented solves produce identical results.
	Obs *obs.Registry
}

// Method names accepted by New.
const (
	// MethodCGIC0 is IC(0)-preconditioned CG — the production default.
	MethodCGIC0 = "cg-ic0"
	// MethodCGJacobi is Jacobi-preconditioned CG — the robust fallback.
	MethodCGJacobi = "cg-jacobi"
	// MethodCholesky is the dense exact factorization — the golden
	// reference for small systems (O(n³)).
	MethodCholesky = "cholesky"
)

// Preconditioner names reported in CGStats.Precond.
const (
	precondIC0    = "ic0"
	precondJacobi = "jacobi"
)

// DefaultMethod is used when Options.Method is empty.
const DefaultMethod = MethodCGIC0

// Methods lists the method names New accepts, sorted.
func Methods() []string { return []string{MethodCGIC0, MethodCGJacobi, MethodCholesky} }

// CheckMethod returns an error naming the valid methods unless method is
// one New accepts (the empty string selects DefaultMethod). Commands call
// it on their -solver flag so a typo fails at startup, not on every solve.
func CheckMethod(method string) error {
	if method == "" || slices.Contains(Methods(), method) {
		return nil
	}
	return fmt.Errorf("solve: unknown method %q (valid: %s)", method, strings.Join(Methods(), ", "))
}

// New builds a solver for the matrix using the method named in opt
// (DefaultMethod when empty).
func New(a *sparse.CSR, opt Options) (Solver, error) {
	method := opt.Method
	if method == "" {
		method = DefaultMethod
	}
	if err := CheckMethod(method); err != nil {
		return nil, err
	}
	m := newSolverMetrics(opt.Obs, method)
	stop := m.setup.Start()
	switch method {
	case MethodCGJacobi:
		pre, err := NewJacobi(a)
		stop()
		if err != nil {
			return nil, err
		}
		return newCGSolver(MethodCGJacobi, a, pre, opt, m, precondJacobi, false), nil
	case MethodCGIC0:
		// IC(0) of an SPD matrix can still break down; degrade to Jacobi
		// scaling. The swap is recorded in
		// the solve.ic_fallbacks counter and in every CGStats this solver
		// returns — a silent preconditioner substitution once hid solver
		// regressions from traces and the diff harness.
		precond, fallback := precondIC0, false
		var pre Preconditioner
		ic, err := NewIC(a)
		if err == nil {
			pre = ic
		} else {
			precond, fallback = precondJacobi, true
			opt.Obs.Counter("solve.ic_fallbacks").Add(1)
			if pre, err = NewJacobi(a); err != nil {
				stop()
				return nil, err
			}
		}
		stop()
		return newCGSolver(MethodCGIC0, a, pre, opt, m, precond, fallback), nil
	default: // MethodCholesky
		c, err := NewCholesky(a)
		stop()
		if err != nil {
			return nil, err
		}
		return &cholSolver{a: a, c: c, k: kernels{workers: opt.Workers}, m: m}, nil
	}
}

// cgSolver is a preconditioned-CG method bound to one matrix. precond
// names the preconditioner that was actually built (which can differ from
// the method's preferred one — see the cg-ic0 fallback), and fallback
// records that substitution; both are stamped into every CGStats returned.
type cgSolver struct {
	method   string
	a        *sparse.CSR
	pre      Preconditioner
	k        kernels
	m        solverMetrics
	precond  string
	fallback bool
}

func newCGSolver(method string, a *sparse.CSR, pre Preconditioner, opt Options, m solverMetrics, precond string, fallback bool) *cgSolver {
	if opt.Obs != nil {
		pre = timedPre{pre: pre, t: m.apply}
	}
	return &cgSolver{method: method, a: a, pre: pre, k: kernels{workers: opt.Workers}, m: m, precond: precond, fallback: fallback}
}

func (s *cgSolver) Method() string { return s.method }

func (s *cgSolver) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	stop := s.m.solveTime.Start()
	x, stats, err := pcg(s.a, s.pre, b, opt, s.k)
	stop()
	stats.Method, stats.Precond, stats.Fallback = s.method, s.precond, s.fallback
	s.m.record(stats)
	return x, stats, err
}

// cholSolver wraps the dense factorization behind the Solver interface.
type cholSolver struct {
	a *sparse.CSR
	c *Cholesky
	k kernels
	m solverMetrics
}

func (s *cholSolver) Method() string { return MethodCholesky }

func (s *cholSolver) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	stop := s.m.solveTime.Start()
	x, stats, err := s.solve(b, opt)
	stop()
	s.m.record(stats)
	return x, stats, err
}

// solve is the direct solve behind Solve. A recorded direct solve
// carries no iteration trajectory and no condition estimate — just the
// outcome.
func (s *cholSolver) solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	var stats CGStats
	stats.Method = MethodCholesky
	stats.N = s.a.N
	// A direct factorization gains nothing from a starting guess, so
	// opt.X0 is ignored — exact solves are trivially "warm".
	// The dense triangular solves have no iteration boundary to poll, so
	// cancellation is honored only before the work starts.
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			stats.Termination = obs.TermCancelled
			return nil, stats, fmt.Errorf("solve: canceled: %w", err)
		}
	}
	x, err := s.c.Solve(b)
	if err != nil {
		stats.Termination = obs.TermError
		return nil, stats, err
	}
	// Report the true relative residual so direct solves carry honest
	// stats; one SpMV is noise next to the O(n³) factorization.
	stats.Converged = true
	stats.Termination = obs.TermConverged
	if normB := s.k.norm2(b); normB > 0 {
		r := make([]float64, s.a.N)
		s.k.mulVec(s.a, r, x)
		s.k.axpy(r, -1, b)
		stats.Residual = s.k.norm2(r) / normB
	}
	return x, stats, nil
}
