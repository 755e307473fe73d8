package solve

import (
	"fmt"

	"pdn3d/internal/obs"
	"pdn3d/internal/sparse"
)

// Reordered wraps a solver that was built on the symmetrically permuted
// system B = Pᵀ·A·P (B[i][j] = A[perm[i]][perm[j]], perm[new] = old) so it
// presents the original node ordering to callers: right-hand sides and
// warm-start guesses are permuted on the way in, solutions are
// inverse-permuted on the way out. Algebraically B·(Pᵀx) = Pᵀb is the same
// system, so the wrapped solve is exact with respect to the original —
// only the floating-point trajectory of an iterative method changes.
//
// perm is captured by reference and must not be mutated afterwards; the
// rmesh topology layer hands over a private copy.
func Reordered(inner Solver, perm []int32) Solver {
	return &reordered{inner: inner, perm: perm}
}

type reordered struct {
	inner Solver
	perm  []int32
}

func (s *reordered) Method() string { return s.inner.Method() }

func (s *reordered) Solve(b []float64, opt CGOptions) ([]float64, CGStats, error) {
	n := len(s.perm)
	// A length mismatch fails before the inner solver runs; its stats
	// still name the method, dimension and error class.
	failed := CGStats{Warm: opt.X0 != nil}
	failed.Method, failed.N, failed.Termination = s.inner.Method(), n, obs.TermError
	if len(b) != n {
		return nil, failed, fmt.Errorf("solve: rhs length %d != permutation length %d", len(b), n)
	}
	pb := make([]float64, n)
	sparse.PermuteVec(pb, b, s.perm)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, failed, fmt.Errorf("solve: warm-start guess length %d != permutation length %d", len(opt.X0), n)
		}
		px := make([]float64, n)
		sparse.PermuteVec(px, opt.X0, s.perm)
		opt.X0 = px
	}
	xp, stats, err := s.inner.Solve(pb, opt)
	if err != nil || xp == nil {
		return nil, stats, err
	}
	x := make([]float64, n)
	sparse.InvPermuteVec(x, xp, s.perm)
	return x, stats, nil
}
