package solve

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pdn3d/internal/sparse"
)

// ladder builds the conductance matrix of an n-node resistor ladder where
// node 0 ties to the supply through gTie and neighbours couple through g.
func ladder(n int, g, gTie float64) *sparse.CSR {
	b := sparse.NewBuilder(n)
	b.AddToGround(0, gTie)
	for i := 0; i+1 < n; i++ {
		b.AddConductance(i, i+1, g)
	}
	return b.Compress()
}

// randomSPD builds a random well-conditioned conductance-style SPD matrix.
func randomSPD(n int, rng *rand.Rand) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddToGround(i, 0.1+rng.Float64())
	}
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddConductance(i, j, rng.Float64()+0.01)
		}
	}
	return b.Compress()
}

// solveOnce builds the solver for method on a and runs one
// solve; a setup failure (a degenerate diagonal) is returned as the solve
// error.
func solveOnce(method string, a *sparse.CSR, b []float64, opt CGOptions) ([]float64, CGStats, error) {
	s, err := New(a, Options{Method: method, Workers: 1})
	if err != nil {
		return nil, CGStats{}, err
	}
	return s.Solve(b, opt)
}

func TestCGSolvesLadderExactly(t *testing.T) {
	// Ladder with unit current injected at the far end: voltage drop
	// accumulates 1/g per segment plus 1/gTie at the tie.
	n := 10
	g, gTie := 2.0, 5.0
	a := ladder(n, g, gTie)
	rhs := make([]float64, n)
	rhs[n-1] = 1 // 1 A into the last node
	x, st, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !st.Converged {
		t.Fatal("CG did not report convergence")
	}
	for i := 0; i < n; i++ {
		want := 1/gTie + float64(i)/g
		if math.Abs(x[i]-want) > 1e-8 {
			t.Errorf("x[%d] = %.10f, want %.10f", i, x[i], want)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := ladder(5, 1, 1)
	x, st, err := solveOnce(MethodCGJacobi, a, make([]float64, 5), CGOptions{})
	if err != nil || !st.Converged {
		t.Fatalf("zero rhs: err=%v converged=%v", err, st.Converged)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %g, want 0", i, v)
		}
	}
	if st.Iterations != 0 {
		t.Errorf("iterations = %d, want 0", st.Iterations)
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	a := ladder(5, 1, 1)
	if _, _, err := solveOnce(MethodCGJacobi, a, make([]float64, 4), CGOptions{}); err == nil {
		t.Error("want dimension error")
	}
}

func TestCGRejectsSingular(t *testing.T) {
	// A floating ladder (no ground tie) is singular: the zero diagonal of
	// an isolated node, or stagnation, must surface as an error.
	b := sparse.NewBuilder(3)
	b.AddConductance(0, 1, 1)
	// node 2 isolated: zero diagonal
	a := b.Compress()
	rhs := []float64{1, -1, 0}
	if _, _, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{MaxIter: 50}); err == nil {
		t.Error("want error for singular system")
	}
}

func TestCGNotConvergedError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(50, rng)
	rhs := make([]float64, 50)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	_, _, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{MaxIter: 1, Tol: 1e-14})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("err = %v, want ErrNotConverged", err)
	}
}

func TestCholeskyMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		xc, err := DenseSolve(a, rhs)
		if err != nil {
			t.Fatalf("DenseSolve: %v", err)
		}
		xg, _, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("CG: %v", err)
		}
		for i := range xc {
			if math.Abs(xc[i]-xg[i]) > 1e-6*(1+math.Abs(xc[i])) {
				t.Fatalf("trial %d: x[%d]: chol %g vs cg %g", trial, i, xc[i], xg[i])
			}
		}
	}
}

func TestCholeskyResidualIsTiny(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%30
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x, err := DenseSolve(a, rhs)
		if err != nil {
			return false
		}
		ax := make([]float64, n)
		a.MulVec(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-rhs[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	b := sparse.NewBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	if _, err := NewCholesky(b.Compress()); err == nil {
		t.Error("want error for indefinite matrix")
	}
}

func TestCholeskySolveDimensionMismatch(t *testing.T) {
	c, err := NewCholesky(ladder(4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(make([]float64, 3)); err == nil {
		t.Error("want dimension error")
	}
}

// Monotone physics property: adding extra conductance anywhere in a grounded
// network can only lower (or keep) every node voltage under the same loads.
func TestMoreMetalNeverRaisesVoltage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		base := sparse.NewBuilder(n)
		extra := sparse.NewBuilder(n)
		base.AddToGround(0, 1)
		extra.AddToGround(0, 1)
		for i := 0; i+1 < n; i++ {
			g := 0.5 + rng.Float64()
			base.AddConductance(i, i+1, g)
			extra.AddConductance(i, i+1, g)
		}
		// Strengthen one random link in the "extra" network.
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			extra.AddToGround(i, 1)
		} else {
			extra.AddConductance(i, j, 2)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.Float64() // non-negative loads
		}
		xb, _, err1 := solveOnce(MethodCGJacobi, base.Compress(), rhs, CGOptions{Tol: 1e-12})
		xe, _, err2 := solveOnce(MethodCGJacobi, extra.Compress(), rhs, CGOptions{Tol: 1e-12})
		if err1 != nil || err2 != nil {
			return false
		}
		for k := range xb {
			if xe[k] > xb[k]+1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPCGMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		a := randomSPD(n, rng)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		xp, sp, err := solveOnce(MethodCGIC0, a, rhs, CGOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("PCG: %v", err)
		}
		xc, sc, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{Tol: 1e-11})
		if err != nil {
			t.Fatalf("CG: %v", err)
		}
		for i := range xp {
			if math.Abs(xp[i]-xc[i]) > 1e-6*(1+math.Abs(xc[i])) {
				t.Fatalf("trial %d: x[%d]: pcg %g vs cg %g", trial, i, xp[i], xc[i])
			}
		}
		if !sp.Converged || !sc.Converged {
			t.Fatal("convergence flags")
		}
	}
}

func TestPCGConvergesFasterOnMesh(t *testing.T) {
	// A 2D grid Laplacian with one tie: the canonical PDN-like system.
	nx, ny := 40, 40
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				b.AddConductance(idx(i, j), idx(i+1, j), 1)
			}
			if j+1 < ny {
				b.AddConductance(idx(i, j), idx(i, j+1), 1)
			}
		}
	}
	b.AddToGround(0, 10)
	a := b.Compress()
	rhs := make([]float64, a.N)
	rhs[a.N-1] = 0.1
	_, sCG, err := solveOnce(MethodCGJacobi, a, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	_, sPCG, err := solveOnce(MethodCGIC0, a, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if sPCG.Iterations >= sCG.Iterations {
		t.Errorf("IC(0) PCG took %d iterations, Jacobi CG %d — expected a reduction",
			sPCG.Iterations, sCG.Iterations)
	}
	t.Logf("mesh 40x40: CG %d iters, PCG %d iters", sCG.Iterations, sPCG.Iterations)
}

func TestICApplyIsSPDAction(t *testing.T) {
	// M⁻¹ must be symmetric positive definite: check x'M⁻¹x > 0 and
	// symmetry via random probes.
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(40, rng)
	pre, err := NewIC(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 40)
	y := make([]float64, 40)
	mx := make([]float64, 40)
	my := make([]float64, 40)
	for trial := 0; trial < 20; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		pre.Apply(mx, x)
		pre.Apply(my, y)
		if dot(x, mx) <= 0 {
			t.Fatal("M^-1 not positive definite")
		}
		if math.Abs(dot(y, mx)-dot(x, my)) > 1e-8*(1+math.Abs(dot(y, mx))) {
			t.Fatal("M^-1 not symmetric")
		}
	}
}

// Cancellation is polled at iteration boundaries: a Cancel that trips
// after k iterations aborts with the cause wrapped; a nil / never-firing
// Cancel changes nothing.
func TestCGCancel(t *testing.T) {
	a := ladder(200, 1, 1)
	b := make([]float64, 200)
	b[199] = 1

	cause := errors.New("deadline exceeded")
	calls := 0
	_, stats, err := solveOnce(MethodCGJacobi, a, b, CGOptions{Cancel: func() error {
		calls++
		if calls > 3 {
			return cause
		}
		return nil
	}})
	if !errors.Is(err, cause) {
		t.Fatalf("canceled solve returned %v, want wrapped %v", err, cause)
	}
	if stats.Converged {
		t.Error("canceled solve claims convergence")
	}

	// A cancel hook that never fires must not perturb the solution.
	plain, _, err := solveOnce(MethodCGJacobi, a, b, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hooked, _, err := solveOnce(MethodCGJacobi, a, b, CGOptions{Cancel: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("cancel hook changed the solution at %d: %g vs %g", i, plain[i], hooked[i])
		}
	}
}

// The dense path honors a pre-tripped Cancel before factorized solves.
func TestCholeskyCancel(t *testing.T) {
	a := ladder(16, 1, 1)
	s, err := New(a, Options{Method: MethodCholesky})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 16)
	b[15] = 1
	cause := errors.New("client went away")
	if _, _, err := s.Solve(b, CGOptions{Cancel: func() error { return cause }}); !errors.Is(err, cause) {
		t.Fatalf("Solve = %v, want wrapped %v", err, cause)
	}
	if _, _, err := s.Solve(b, CGOptions{}); err != nil {
		t.Fatalf("uncanceled solve failed: %v", err)
	}
}

// degenerateMatrix returns a 6-node path system where node idx carries
// the given diagonal value (bypassing Builder's zero-skip via direct CSR
// construction when needed).
func degenerateMatrix(idx int, diag float64) *sparse.CSR {
	b := sparse.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddConductance(i, i+1, 1)
	}
	b.AddToGround(0, 2)
	m := b.Compress()
	for q := m.RowPtr[idx]; q < m.RowPtr[idx+1]; q++ {
		if int(m.Col[q]) == idx {
			m.Val[q] = diag
		}
	}
	return m
}

// A zero, negative, or NaN diagonal must yield the typed error naming the
// node — never a silent 1/0 or 1/NaN that turns into NaN voltages. The
// NaN case is the regression: the pre-fix check (d <= 0) let NaN through.
func TestDegenerateDiagonalTypedError(t *testing.T) {
	for _, tc := range []struct {
		name string
		diag float64
	}{
		{"zero", 0},
		{"negative", -3},
		{"nan", math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const node = 3
			_, err := NewJacobi(degenerateMatrix(node, tc.diag))
			if err == nil {
				t.Fatal("degenerate diagonal accepted")
			}
			var dde *DegenerateDiagonalError
			if !errors.As(err, &dde) {
				t.Fatalf("want *DegenerateDiagonalError, got %v", err)
			}
			if dde.Node != node {
				t.Errorf("error names node %d, want %d", dde.Node, node)
			}
		})
	}
}

// A matrix with a structurally missing diagonal entry (CSR.Diag reports
// 0) must be rejected the same way.
func TestMissingDiagonalTypedError(t *testing.T) {
	b := sparse.NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(2, 2, 2)
	b.Add(0, 2, -1)
	b.Add(2, 0, -1)
	// Node 1 never receives a diagonal stamp: a floating node, as an
	// imported SPICE deck with a current source into an unconnected node
	// would produce.
	a := b.Compress()
	_, err := NewJacobi(a)
	var dde *DegenerateDiagonalError
	if !errors.As(err, &dde) {
		t.Fatalf("want *DegenerateDiagonalError, got %v", err)
	}
	if dde.Node != 1 || dde.Value != 0 {
		t.Errorf("error = %+v, want node 1 value 0", dde)
	}
}

// The cg-ic0 solver must report which preconditioner actually ran.
func TestPrecondReportedInStats(t *testing.T) {
	a := grid2D(12, 12)
	b := make([]float64, a.N)
	b[7] = 1

	s, err := New(a, Options{Method: MethodCGIC0})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := s.Solve(b, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Precond != "ic0" || st.Fallback {
		t.Errorf("healthy cg-ic0 stats = %+v, want precond ic0 without fallback", st)
	}
}
