package solve

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"pdn3d/internal/obs"
)

// TestSolveOutcomeSingleSource: every solver New builds reports each solve once,
// in the CGStats it returns, and the trace-span annotation, the committed
// flight record and the solve.<method>.* registry metrics are each derived
// from those stats. For every built-in method and every exit class the
// three must agree with the stats — including the error paths, where the
// stats still name the method, preconditioner, dimension and termination.
// A wrong-length right-hand side is the structural error every method
// reaches at solve time (a degenerate matrix fails cholesky at setup,
// before any Solve).
func TestSolveOutcomeSingleSource(t *testing.T) {
	a := grid2D(16, 16)
	rhs := benchRHS(a.N)
	guess := make([]float64, a.N)
	for i := range guess {
		guess[i] = 0.01
	}
	errCancel := errors.New("client went away")
	// cancelAfter returns a Cancel hook that fires on poll polls+1.
	cancelAfter := func(polls int) func() error {
		calls := 0
		return func() error {
			if calls++; calls > polls {
				return errCancel
			}
			return nil
		}
	}
	precond := map[string]string{
		MethodCGIC0: precondIC0, MethodCGJacobi: precondJacobi, MethodCholesky: "",
	}

	for _, method := range Methods() {
		direct := method == MethodCholesky
		// A direct solve ignores the iteration budget and the warm guess,
		// and polls Cancel once, before the factorized solve.
		iterTerm, polls := obs.TermMaxIter, 2
		if direct {
			iterTerm, polls = obs.TermConverged, 0
		}
		cases := []struct {
			name string
			b    []float64
			opt  CGOptions
			term string
			warm bool
		}{
			{"converged", rhs, CGOptions{Tol: 1e-10}, obs.TermConverged, false},
			{"warm", rhs, CGOptions{Tol: 1e-10, X0: guess}, obs.TermConverged, !direct},
			{"maxiter", rhs, CGOptions{Tol: 1e-30, MaxIter: 2}, iterTerm, false},
			{"cancelled", rhs, CGOptions{Tol: 1e-30, Cancel: cancelAfter(polls)}, obs.TermCancelled, false},
			{"error", rhs[:a.N-1], CGOptions{}, obs.TermError, false},
		}
		for _, c := range cases {
			t.Run(method+"/"+c.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				s, err := New(a, Options{Method: method, Workers: 1, Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				rec := obs.NewSolveBuffer(1).StartSolveRecord()
				opt := c.opt
				opt.Rec = rec
				_, stats, err := s.Solve(c.b, opt)
				committed := rec.Commit(stats.SolveOutcome)

				// The stats themselves: fully populated on every path.
				if (err == nil) != (c.term == obs.TermConverged) {
					t.Fatalf("err = %v for termination %q", err, c.term)
				}
				if c.term == obs.TermCancelled && !errors.Is(err, errCancel) {
					t.Fatalf("err = %v, want wrapped cancellation", err)
				}
				if stats.Method != method || stats.Precond != precond[method] || stats.Fallback ||
					stats.N != a.N || stats.Termination != c.term ||
					stats.Converged != (c.term == obs.TermConverged) || stats.Warm != c.warm {
					t.Fatalf("stats = %+v, want method %s precond %q n %d termination %s warm %v",
						stats, method, precond[method], a.N, c.term, c.warm)
				}

				// The span annotation.
				tr := obs.NewTrace("")
				sp := tr.Span("solve")
				sp.Annotate(stats.Attrs()...)
				sp.End()
				attrs := tr.Snapshot().Spans[0].Attrs
				want := map[string]string{
					"iterations": strconv.Itoa(stats.Iterations),
					"residual":   fmt.Sprint(stats.Residual),
					"converged":  strconv.FormatBool(stats.Converged),
				}
				if stats.Precond != "" {
					want["precond"] = stats.Precond
				}
				if stats.Warm {
					want["warm"] = "true"
				}
				if fmt.Sprint(attrs) != fmt.Sprint(want) {
					t.Fatalf("span attrs = %v, want %v", attrs, want)
				}

				// The flight record: the outcome verbatim, and the warm
				// flag its seed-norm hook set agrees with the stats.
				if committed.SolveOutcome != stats.SolveOutcome || committed.Warm != stats.Warm {
					t.Fatalf("record %+v disagrees with stats %+v", committed, stats)
				}

				// The registry: one booking of this solve.
				snap := reg.Snapshot()
				p := "solve." + method + "."
				wantCounters := map[string]int64{
					"solves": 1, "iterations_total": int64(stats.Iterations), "errors": 0, "warm_starts": 0,
				}
				if c.term != obs.TermConverged {
					wantCounters["errors"] = 1
				}
				if stats.Warm {
					wantCounters["warm_starts"] = 1
				}
				for name, v := range wantCounters {
					if got := snap.Counters[p+name]; got != v {
						t.Errorf("%s%s = %d, want %d", p, name, got, v)
					}
				}
				if got := snap.Gauges[p+"residual_max"]; got != stats.Residual {
					t.Errorf("%sresidual_max = %g, want %g", p, got, stats.Residual)
				}
				if h := snap.Histograms[p+"iterations"]; h.Count != 1 {
					t.Errorf("%siterations count = %d, want 1", p, h.Count)
				}
			})
		}

		// Instrumentation never changes what a solve returns: the same
		// solve with no registry, recorder or cancel hook yields
		// bit-identical x and equal stats.
		t.Run(method+"/neutral", func(t *testing.T) {
			run := func(opt Options, cg CGOptions) ([]float64, CGStats) {
				s, err := New(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				x, st, err := s.Solve(rhs, cg)
				if err != nil {
					t.Fatal(err)
				}
				return x, st
			}
			xPlain, stPlain := run(Options{Method: method, Workers: 1}, CGOptions{Tol: 1e-10})
			rec := obs.NewSolveBuffer(1).StartSolveRecord()
			xInst, stInst := run(Options{Method: method, Workers: 1, Obs: obs.NewRegistry()},
				CGOptions{Tol: 1e-10, Rec: rec, Cancel: func() error { return nil }})
			rec.Commit(stInst.SolveOutcome)
			if stPlain != stInst {
				t.Fatalf("instrumentation changed stats: %+v vs %+v", stPlain, stInst)
			}
			for i := range xPlain {
				if xPlain[i] != xInst[i] {
					t.Fatalf("instrumentation changed the solution at %d: %g vs %g", i, xPlain[i], xInst[i])
				}
			}
		})
	}
}
