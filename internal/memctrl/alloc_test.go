//go:build !race

package memctrl

import "testing"

// The LUT consult and the cycle loop are allocation-free: a covered
// lookup allocates nothing, and over a fully covered table a simulation's
// allocations do not grow with the request count beyond amortized slice
// growth. (A miss allocates its *lut.NotCoveredError.)
func TestLookupAndCycleLoopDoNotAllocate(t *testing.T) {
	table := pinnedLUT(t, 8)
	counts := []int{0, 1, 0, 2}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := table.MaxIR(counts, 0.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Table.MaxIR on a covered point: %v allocations, want 0", n)
	}

	cfg := DefaultConfig(PolicyIRAware, DistR, table, 0.024)
	allocs := func(n int) float64 {
		reqs := pinnedRequests(t, n)
		return testing.AllocsPerRun(1, func() {
			for i := range reqs {
				reqs[i].Done = 0
			}
			if _, err := Simulate(cfg, reqs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(4000)
	if large > small+32 {
		t.Errorf("Simulate allocations: %v at 4000 requests vs %v at 2000, want at most 32 more", large, small)
	}
	t.Logf("Simulate allocations: %v at 2000 requests, %v at 4000", small, large)
}
