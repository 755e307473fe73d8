package exp

import (
	"strings"
	"sync"
	"testing"

	"pdn3d/internal/obs"
	"pdn3d/internal/report"
)

// TestCooptTablesShareOneFit locks the shared co-optimizer: Table 9 and
// the regression study fit a benchmark's models once between them, and
// each renders the same bytes whichever runs first, or when both run at
// once — Table 9's sample count adds only its own verification solves to
// the fit's, never the other study's.
func TestCooptTablesShareOneFit(t *testing.T) {
	const bench = "wideio"
	type rendered struct{ table9, regression string }
	run := func(t *testing.T, order func(r *Runner) (t9, rg *report.Table, err9, errRg error)) rendered {
		reg := obs.NewRegistry()
		r := NewRunner(Config{MeshPitch: 1.0, Requests: 3000, Obs: reg})
		t9, rg, err9, errRg := order(r)
		if err9 != nil || errRg != nil {
			t.Fatalf("table9: %v; regression: %v", err9, errRg)
		}
		fits := 0
		for _, sp := range reg.Snapshot().Spans {
			if sp.Name == "opt/fit-models" {
				fits++
			}
		}
		if fits != 1 {
			t.Errorf("%d opt/fit-models spans, want 1", fits)
		}
		return rendered{t9.String(), rg.String()}
	}
	cases := []struct {
		name  string
		order func(r *Runner) (t9, rg *report.Table, err9, errRg error)
	}{
		{"table9 first", func(r *Runner) (t9, rg *report.Table, err9, errRg error) {
			t9, err9 = r.Table9(bench)
			rg, errRg = r.RegressionStudy(bench)
			return
		}},
		{"regression first", func(r *Runner) (t9, rg *report.Table, err9, errRg error) {
			rg, errRg = r.RegressionStudy(bench)
			t9, err9 = r.Table9(bench)
			return
		}},
		{"concurrent", func(r *Runner) (t9, rg *report.Table, err9, errRg error) {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); t9, err9 = r.Table9(bench) }()
			go func() { defer wg.Done(); rg, errRg = r.RegressionStudy(bench) }()
			wg.Wait()
			return
		}},
	}
	var want rendered
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.order)
			if i == 0 {
				// 432 fit solves; Table 9 adds 2 per verified row.
				if !strings.Contains(got.table9, "over 440 R-Mesh samples") ||
					!strings.Contains(got.regression, "R-Mesh samples solved           432") {
					t.Errorf("sample counts changed:\n%s\n%s", got.table9, got.regression)
				}
				want = got
				return
			}
			if got != want {
				t.Errorf("tables differ from %q:\n--- want ---\n%s\n%s\n--- got ---\n%s\n%s",
					cases[0].name, want.table9, want.regression, got.table9, got.regression)
			}
		})
	}
}
