// Package solve provides the linear solvers behind the R-Mesh IR-drop
// engine. Every method lives behind the Solver interface and is selected
// by name in New (see solver.go): conjugate gradients with Jacobi or
// IC(0) preconditioning for the large sparse SPD conductance systems (the
// production paths, standing in for the paper's HSPICE runs), and a dense
// Cholesky factorization used as the golden reference on small systems
// (standing in for Cadence EPS in the Figure 4 style validation). The hot
// BLAS-1/SpMV kernels are sharded across a bounded worker pool for large
// systems (see kernels.go); sharding is deterministic, so results do not
// depend on the worker count.
package solve

import (
	"errors"
	"fmt"
	"math"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// CGOptions tunes an iterative solve.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖. Zero selects 1e-10.
	Tol float64
	// MaxIter caps the iteration count. Zero selects 10·n.
	MaxIter int
	// Cancel, when non-nil, is polled once per iteration; a non-nil
	// return aborts the solve with that error wrapped. This is how
	// per-request context cancellation reaches the iteration loop:
	// callers set Cancel = ctx.Err so an abandoned request stops burning
	// CPU at the next iteration boundary instead of running to
	// convergence. Cancellation never changes the values a completed
	// solve returns.
	Cancel func() error
	// X0, when non-nil, warm-starts the iteration from the given guess
	// instead of the zero vector — the payoff when consecutive solves
	// differ only slightly (a value sweep over one topology, or adjacent
	// memory states). The guess is copied, never mutated. A warm solve
	// converges to the same tolerance as a cold one but follows a
	// different floating-point trajectory, so callers that promise
	// byte-identical outputs must leave X0 nil. Direct methods ignore it.
	X0 []float64
	// Rec, when non-nil, is the flight recorder for this solve: the CG
	// core feeds it the per-iteration α/β coefficients, the residual
	// trajectory and the warm-start seed norm. The caller owns the
	// recorder's Commit with the returned CGStats (enforced by the
	// obscontract analyzer). Recording never changes the values a solve
	// returns, and nothing recorded is wall-clock-derived — the captured
	// shapes are identical for any worker count.
	Rec *obs.SolveRecorder
}

// CGStats is the single per-solve outcome: every Solver.Solve returns it
// fully populated on every path — converged, maxiter, cancelled, error —
// and the trace span (Attrs), the solve.<method>.* registry metrics and
// the committed flight record are all derived from it.
type CGStats struct {
	// SolveOutcome carries the identity (Method, the preconditioner that
	// actually ran, and whether IC(0) fell back to Jacobi at setup), the
	// system dimension, the iteration count, final relative residual,
	// convergence flag and termination class. The CG core fills the
	// iteration story; the solver built by New stamps the identity.
	obs.SolveOutcome
	// Warm reports that the solve started from a caller-supplied guess
	// (CGOptions.X0) rather than zero.
	Warm bool
}

// Attrs renders the stats as trace-span attributes, so a caller holding
// the span covering a solve annotates it once after the solve returns.
// precond is omitted for direct methods; precond_fallback and warm
// appear only when true.
func (st CGStats) Attrs() []obs.Attr {
	attrs := []obs.Attr{
		obs.A("iterations", st.Iterations),
		obs.A("residual", st.Residual),
		obs.A("converged", st.Converged),
	}
	if st.Precond != "" {
		attrs = append(attrs, obs.A("precond", st.Precond))
	}
	if st.Fallback {
		attrs = append(attrs, obs.A("precond_fallback", true))
	}
	if st.Warm {
		attrs = append(attrs, obs.A("warm", true))
	}
	return attrs
}

// DegenerateDiagonalError reports a zero, negative, NaN, or missing
// diagonal entry in a conductance system — the signature of a degenerate
// mesh where a node has lost every path to a supply (e.g. 100% TSV
// failure). Solvers return it from setup instead of dividing by the bad
// diagonal and propagating NaN voltages.
type DegenerateDiagonalError struct {
	Node  int
	Value float64 // the stored diagonal; 0 when the entry is missing entirely
}

func (e *DegenerateDiagonalError) Error() string {
	if e.Value == 0 {
		return fmt.Sprintf("solve: degenerate diagonal at node %d: zero or missing entry (node has no conductance path)", e.Node)
	}
	return fmt.Sprintf("solve: degenerate diagonal at node %d: %g (matrix not SPD)", e.Node, e.Value)
}

// ErrNotConverged is wrapped in the error returned when CG exhausts its
// iteration budget above tolerance.
var ErrNotConverged = errors.New("solve: CG did not converge")

// Preconditioner approximates the action of A⁻¹: Apply computes
// z = M⁻¹·r. Implementations must be safe for concurrent Apply calls on
// distinct vectors after construction.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Jacobi is the diagonal (Jacobi) preconditioner M = diag(A).
type Jacobi struct {
	invD []float64
}

// NewJacobi builds the Jacobi preconditioner. A zero, negative, NaN, or
// missing diagonal (CSR.Diag reports missing entries as 0) yields a typed
// *DegenerateDiagonalError naming the node instead of a divide-by-zero
// that would surface as NaN voltages much later.
func NewJacobi(a *sparse.CSR) (*Jacobi, error) {
	invD, err := invDiag(a)
	if err != nil {
		return nil, err
	}
	return &Jacobi{invD: invD}, nil
}

// invDiag extracts 1/diag(A), failing with a typed error on any diagonal
// a preconditioner must not divide by. The !(d > 0) form also rejects NaN.
func invDiag(a *sparse.CSR) ([]float64, error) {
	invD := a.Diag()
	for i, d := range invD {
		if !(d > 0) {
			return nil, &DegenerateDiagonalError{Node: i, Value: d}
		}
		invD[i] = 1 / d
	}
	return invD, nil
}

// Apply computes z = diag(A)⁻¹ · r.
func (j *Jacobi) Apply(z, r []float64) { hadamard(z, j.invD, r) }

// pcg is the shared preconditioned conjugate-gradient core behind every
// CG-family solver. The residual norm for the convergence check is
// accumulated in the same pass that updates the residual (k.axpyNormSq)
// rather than recomputed with a separate sweep. It fills the iteration
// story of the returned CGStats (N, Iterations, Residual, Converged,
// Termination, Warm) on every exit; the solver identity is the caller's
// to stamp.
func pcg(a *sparse.CSR, pre Preconditioner, b []float64, opt CGOptions, k kernels) ([]float64, CGStats, error) {
	n := a.N
	stats := CGStats{Warm: opt.X0 != nil}
	stats.N = n
	// Structural failures (a dimension mismatch, a non-SPD breakdown)
	// exit with this default; every other exit sets its own class.
	stats.Termination = obs.TermError
	if len(b) != n {
		return nil, stats, fmt.Errorf("solve: rhs length %d != matrix dim %d", len(b), n)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * n
	}

	normB := k.norm2(b)
	x := make([]float64, n)
	if normB == 0 {
		stats.Converged = true
		stats.Termination = obs.TermConverged
		return x, stats, nil
	}

	r := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, stats, fmt.Errorf("solve: warm-start guess length %d != matrix dim %d", len(opt.X0), n)
		}
		// Warm start: r = b − A·x0. When the guess already meets the
		// tolerance (a sweep point nearly identical to the previous one)
		// the solve finishes with zero iterations. The early return exists
		// only on this path — the cold path below is untouched, keeping
		// its results bit-for-bit identical to the pre-warm-start solver.
		copy(x, opt.X0)
		if opt.Rec != nil {
			// The seed norm costs one extra reduction, so only recorded
			// solves pay for it.
			opt.Rec.Warm(k.norm2(x))
		}
		k.mulVec(a, r, x)
		k.xpby(r, -1, b)
		if stats.Residual = k.norm2(r) / normB; stats.Residual <= tol {
			stats.Converged = true
			stats.Termination = obs.TermConverged
			return x, stats, nil
		}
	} else {
		copy(r, b) // x = 0 so r = b
	}
	z := make([]float64, n)
	pre.Apply(z, r)
	p := make([]float64, n)
	copy(p, z)
	ap := make([]float64, n)

	rz := k.dot(r, z)
	for it := 0; it < maxIter; it++ {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				stats.Termination = obs.TermCancelled
				return nil, stats, fmt.Errorf("solve: canceled at iteration %d: %w", it, err)
			}
		}
		k.mulVec(a, ap, p)
		pap := k.dot(p, ap)
		if pap <= 0 {
			return nil, stats, fmt.Errorf("solve: p'Ap = %g <= 0 at iteration %d (matrix not SPD)", pap, it)
		}
		alpha := rz / pap
		k.axpy(x, alpha, p)
		rNormSq := k.axpyNormSq(r, -alpha, ap)
		stats.Iterations = it + 1
		stats.Residual = math.Sqrt(rNormSq) / normB
		opt.Rec.RecordIter(alpha, stats.Residual)
		if stats.Residual <= tol {
			stats.Converged = true
			stats.Termination = obs.TermConverged
			return x, stats, nil
		}
		pre.Apply(z, r)
		rzNew := k.dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		k.xpby(p, beta, z)
		opt.Rec.RecordBeta(beta)
	}
	stats.Termination = obs.TermMaxIter
	return x, stats, fmt.Errorf("%w after %d iterations (residual %.3e, tol %.3e)",
		ErrNotConverged, stats.Iterations, stats.Residual, tol)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// axpy computes y += alpha*x in place.
func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// hadamard computes z = d .* r elementwise.
func hadamard(z, d, r []float64) {
	for i := range z {
		z[i] = d[i] * r[i]
	}
}
