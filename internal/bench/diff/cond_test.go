package diff_test

import (
	"math"
	"testing"

	"pdn3d/internal/bench/diff"
	"pdn3d/internal/bench/gen"
	"pdn3d/internal/obs"
	"pdn3d/internal/solve"
)

// condOracleRelTol is the documented accuracy band of the CG-Lanczos
// condition estimate: within 10% of the dense eigenvalue oracle on
// oracle-sized meshes. Lanczos Ritz values approach the extreme
// eigenvalues from inside the spectrum, so the estimate reads slightly
// low; 10% bounds that bias at solver tolerance (DESIGN.md §5i).
const condOracleRelTol = 0.10

// TestCondEstimateMatchesDenseOracle pins the flight recorder's
// CG-Lanczos condition estimate against DenseCond on the smallest corpus
// mesh: Jacobi-preconditioned CG sees the Jacobi-scaled operator, and
// its recorded estimate must land within condOracleRelTol of the
// operator's true κ₂.
func TestCondEstimateMatchesDenseOracle(t *testing.T) {
	specs, err := gen.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	var spec *gen.Spec
	for _, s := range specs {
		if s.Name == "grid0-ddr3" {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("corpus is missing grid0-ddr3")
	}
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, rhs, err := diff.Assemble(inst)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() > diff.DefaultOracleMaxN {
		t.Fatalf("grid0-ddr3 has %d nodes, above the %d oracle cap", m.N(), diff.DefaultOracleMaxN)
	}

	exact, err := diff.DenseCond(m.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 1 {
		t.Fatalf("dense κ = %g, want > 1 for a non-trivial mesh", exact)
	}

	buf := obs.NewSolveBuffer(1)
	rec := buf.StartSolveRecord()
	_, stats, err := m.Solve(rhs, solve.Options{
		Method:    solve.MethodCGJacobi,
		CGOptions: solve.CGOptions{Tol: diff.DefaultTol, Rec: rec},
	})
	est := rec.Commit(stats.SolveOutcome).CondEst
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("recorded cond_est = %g, want > 0", est)
	}
	if rel := math.Abs(est-exact) / exact; rel > condOracleRelTol {
		t.Errorf("CG-Lanczos κ = %.6g vs dense oracle %.6g: rel err %.3f above %.2f",
			est, exact, rel, condOracleRelTol)
	}
}

// TestCheckRecordsConvergenceColumns: the harness report's runs must
// carry the flight-recorder columns — a condition estimate and a
// converged termination for every iterative run, and a termination
// without an estimate for the direct oracle method.
func TestCheckRecordsConvergenceColumns(t *testing.T) {
	rep, err := diff.Check(&gen.Spec{Name: "cols", Base: "ddr3-off", Pitch: 1.0, Seed: 1},
		diff.Options{SkipRoundTrip: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Termination != obs.TermConverged {
			t.Errorf("%s (warm=%v): termination = %q, want %q", r.Method, r.Warm, r.Termination, obs.TermConverged)
		}
		if r.Method == solve.MethodCholesky {
			if r.CondEst != 0 {
				t.Errorf("cholesky run carries cond_est %g, want 0 (no CG trajectory)", r.CondEst)
			}
			continue
		}
		// Warm runs may converge in so few iterations that the Lanczos
		// tridiagonal is degenerate; cold runs must always estimate.
		if !r.Warm && r.CondEst <= 1 {
			t.Errorf("%s cold run cond_est = %g, want > 1", r.Method, r.CondEst)
		}
	}
}
