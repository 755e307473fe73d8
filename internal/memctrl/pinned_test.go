package memctrl

import (
	"math"
	"testing"

	"pdn3d/internal/lut"
)

// pinnedLUT is a fixed 4-die, maxPerDie-2 table whose drop grows with the
// total and peak open-bank counts and with I/O activity. States with more
// than maxOpen open banks are left out.
func pinnedLUT(t testing.TB, maxOpen int) *lut.Table {
	t.Helper()
	levels := []float64{0.25, 0.5, 1.0}
	var pts []lut.Point
	for a := 0; a <= 2; a++ {
		for b := 0; b <= 2; b++ {
			for c := 0; c <= 2; c++ {
				for d := 0; d <= 2; d++ {
					total := a + b + c + d
					if total > maxOpen {
						continue
					}
					peak := max(a, b, c, d)
					for _, io := range levels {
						ir := 0.005*float64(total) + 0.003*float64(peak) + 0.008*io
						pts = append(pts, lut.Point{Counts: []int{a, b, c, d}, IO: io, MaxIR: ir})
					}
				}
			}
		}
	}
	table, err := lut.FromPoints(4, 2, levels, pts)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// pinnedRequests is the paper's workload cut to n requests.
func pinnedRequests(t testing.TB, n int) []Request {
	t.Helper()
	wl := DefaultWorkload(4, 8)
	wl.Requests = n
	reqs, err := Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// The controller's results over a fixed table and stream are pinned to
// the values the map-keyed LUT and per-cycle-allocating scheduler
// produced, so reworking either cannot drift a cycle or a counter. The
// table stops at three open banks, so IR-aware runs see both over-limit
// states and LUT misses.
func TestPinnedPolicyResults(t *testing.T) {
	table := pinnedLUT(t, 3)
	const maxIRBits = 0x3f989374bc6a7efa // 24 mV, the worst stored state reached
	tests := []struct {
		name              string
		policy            IRPolicy
		sched             Scheduler
		limit             float64
		cycles            int64
		hits, misses, act int
		blocked, lutMiss  int64
	}{
		{"Standard/FCFS", PolicyStandard, FCFS, 0, 17402, 2000, 500, 500, 141814, 0},
		{"IR-aware/FCFS", PolicyIRAware, FCFS, 0.024, 14455, 2000, 549, 549, 91254, 62923},
		{"IR-aware/DistR", PolicyIRAware, DistR, 0.024, 13807, 2000, 623, 623, 233319, 207884},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res := runOne(t, DefaultConfig(tc.policy, tc.sched, table, tc.limit), pinnedRequests(t, 2000))
			if res.Cycles != tc.cycles || res.RowHits != tc.hits || res.RowMisses != tc.misses ||
				res.Activations != tc.act || res.Blocked != tc.blocked || res.LUTMisses != tc.lutMiss {
				t.Errorf("got cycles %d hits %d misses %d acts %d blocked %d lut misses %d, want %d %d %d %d %d %d",
					res.Cycles, res.RowHits, res.RowMisses, res.Activations, res.Blocked, res.LUTMisses,
					tc.cycles, tc.hits, tc.misses, tc.act, tc.blocked, tc.lutMiss)
			}
			if got := math.Float64bits(res.MaxIR); got != maxIRBits {
				t.Errorf("MaxIR bits %#x, want %#x", got, uint64(maxIRBits))
			}
		})
	}
}
