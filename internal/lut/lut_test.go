package lut

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
)

var (
	sharedOnce     sync.Once
	sharedAnalyzer *irdrop.Analyzer
	sharedTable    *Table
	sharedErr      error
)

func coarseAnalyzer(t testing.TB) *irdrop.Analyzer {
	t.Helper()
	sharedSetup(t)
	return sharedAnalyzer
}

// sharedTableFor builds the default table once; the expensive 243 solves
// dominate this package's test time otherwise.
func sharedTableFor(t testing.TB) *Table {
	t.Helper()
	sharedSetup(t)
	return sharedTable
}

func sharedSetup(t testing.TB) {
	t.Helper()
	sharedOnce.Do(func() {
		b, err := bench3d.StackedDDR3Off()
		if err != nil {
			sharedErr = err
			return
		}
		spec := b.Spec.Clone()
		spec.MeshPitch = 0.6
		sharedAnalyzer, sharedErr = irdrop.New(spec, b.DRAMPower, nil)
		if sharedErr != nil {
			return
		}
		sharedTable, sharedErr = Build(sharedAnalyzer, 2, DefaultIOLevels())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
}

func TestBuildCoversAllStates(t *testing.T) {
	table := sharedTableFor(t)
	if want := 81 * 3; table.Entries() != want {
		t.Fatalf("entries = %d, want %d (3^4 states x 3 IO levels)", table.Entries(), want)
	}
	if table.Dies != 4 || table.MaxPerDie != 2 {
		t.Errorf("table geometry %d dies / %d max, want 4/2", table.Dies, table.MaxPerDie)
	}
}

func TestLookupMonotoneInBanksAndIO(t *testing.T) {
	table := sharedTableFor(t)
	v1, err := table.MaxIR([]int{0, 0, 0, 1}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("two banks (%.2f mV) should exceed one (%.2f mV)", v2*1000, v1*1000)
	}
	lo, _ := table.MaxIR([]int{0, 0, 0, 2}, 0.25)
	hi, _ := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	if hi <= lo {
		t.Errorf("IR at 100%% IO (%.2f) should exceed 25%% (%.2f)", hi*1000, lo*1000)
	}
}

func TestLookupRoundsIOUp(t *testing.T) {
	table := sharedTableFor(t)
	// 1/3 is not a level: must round UP to 0.5 (conservative).
	third, err := table.MaxIR([]int{2, 2, 2, 0}, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	half, err := table.MaxIR([]int{2, 2, 2, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(third-half) > 1e-15 {
		t.Errorf("io=1/3 lookup %.4f should equal the 0.5 level %.4f", third, half)
	}
	// Above the top level clamps to the top level.
	top, _ := table.MaxIR([]int{0, 0, 0, 2}, 1.0)
	over, err := table.MaxIR([]int{0, 0, 0, 2}, 0.999999)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(over-top) > 1e-15 {
		t.Error("io just under 1.0 should use the 1.0 level")
	}
}

// Every miss path is a typed *NotCoveredError wrapping ErrNotCovered and
// carrying the offending key, so callers can branch (HTTP 422, policy
// miss counters) and report the point without string matching.
func TestLookupErrorsAreTyped(t *testing.T) {
	table := sharedTableFor(t)
	tests := []struct {
		name   string
		counts []int
		io     float64
	}{
		{"wrong die count", []int{0, 0, 0}, 1.0},
		{"count above MaxPerDie", []int{0, 0, 0, 3}, 1.0},
		{"negative count", []int{0, 0, 0, -1}, 1.0},
		{"io above top level", []int{0, 0, 0, 2}, 1.5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := table.MaxIR(tc.counts, tc.io)
			if err == nil {
				t.Fatal("want error")
			}
			if !errors.Is(err, ErrNotCovered) {
				t.Fatalf("error %v does not wrap ErrNotCovered", err)
			}
			var nce *NotCoveredError
			if !errors.As(err, &nce) {
				t.Fatalf("error %v is not a *NotCoveredError", err)
			}
			if !reflect.DeepEqual(nce.Counts, tc.counts) || nce.IO != tc.io {
				t.Errorf("error key = %v@%g, want %v@%g", nce.Counts, nce.IO, tc.counts, tc.io)
			}
		})
	}
}

// Points dumps the grid deterministically: lexicographic states, ascending
// IO levels, full coverage.
func TestPointsDeterministicAndComplete(t *testing.T) {
	table := sharedTableFor(t)
	pts := table.Points()
	if len(pts) != table.Entries() {
		t.Fatalf("Points returned %d entries, table has %d", len(pts), table.Entries())
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		cmp := 0
		for d := range a.Counts {
			if a.Counts[d] != b.Counts[d] {
				cmp = a.Counts[d] - b.Counts[d]
				break
			}
		}
		if cmp > 0 || (cmp == 0 && a.IO >= b.IO) {
			t.Fatalf("points out of order at %d: %v@%g then %v@%g", i, a.Counts, a.IO, b.Counts, b.IO)
		}
	}
	for _, p := range pts {
		v, err := table.MaxIR(p.Counts, p.IO)
		if err != nil || v != p.MaxIR {
			t.Fatalf("point %v@%g disagrees with MaxIR: %g vs %g (%v)", p.Counts, p.IO, p.MaxIR, v, err)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	a := coarseAnalyzer(t)
	if _, err := Build(a, 0, DefaultIOLevels()); err == nil {
		t.Error("maxPerDie 0: want error")
	}
	if _, err := Build(a, 2, nil); err == nil {
		t.Error("no IO levels: want error")
	}
	if _, err := Build(a, 2, []float64{0, 0.5}); err == nil {
		t.Error("IO level 0: want error")
	}
	if _, err := Build(a, 2, []float64{0.5, 1.5}); err == nil {
		t.Error("IO level > 1: want error")
	}
}

func TestWorstIRIsFullActivity(t *testing.T) {
	table := sharedTableFor(t)
	worst := table.WorstIR()
	if worst <= 0 {
		t.Fatal("worst IR must be positive")
	}
	full, err := table.MaxIR([]int{2, 2, 2, 2}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if worst < full {
		t.Errorf("worst %.4f below the 2-2-2-2@100%% entry %.4f", worst, full)
	}
}

// synthetic stands in for an analyzer: a distinct drop per (state, io).
func synthetic(counts []int, io float64) (*irdrop.Result, error) {
	ir := io
	for d, c := range counts {
		ir += float64((d+1)*c) * 1e-3
	}
	return &irdrop.Result{MaxIR: ir}, nil
}

// I/O levels closer than the old four-decimal key stay separate points.
func TestNearbyLevelsStayApart(t *testing.T) {
	table, err := BuildWith(synthetic, 2, 2, []float64{0.5, 0.50004}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := table.Entries(), 9*2; got != want {
		t.Errorf("entries = %d, want %d", got, want)
	}
	for _, io := range []float64{0.5, 0.50004} {
		got, err := table.MaxIR([]int{1, 2}, io)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := synthetic([]int{1, 2}, io)
		if got != want.MaxIR {
			t.Errorf("MaxIR at io %g = %g, want that level's solve %g", io, got, want.MaxIR)
		}
	}
}

// FromPoints and BuildWith reject every grid they cannot represent
// exactly, instead of storing a point MaxIR can never return or dropping
// it silently.
func TestGridRejectsMalformedInput(t *testing.T) {
	levels := []float64{0.5, 1.0}
	pt := func(io float64, counts ...int) Point { return Point{Counts: counts, IO: io, MaxIR: 0.09} }
	tests := []struct {
		name   string
		levels []float64
		pts    []Point
	}{
		{"count above maxPerDie", levels, []Point{pt(1.0, 0, 3)}},
		{"negative count", levels, []Point{pt(1.0, -1, 0)}},
		{"wrong die count", levels, []Point{pt(1.0, 0, 0, 0)}},
		{"I/O on no level", levels, []Point{pt(0.75, 0, 1)}},
		{"I/O just off a level", levels, []Point{pt(0.5+1e-9, 0, 1)}},
		{"duplicate point", levels, []Point{pt(0.5, 1, 1), pt(0.5, 1, 1)}},
		{"duplicate point within slack", levels, []Point{pt(0.5, 1, 1), pt(0.5+1e-13, 1, 1)}},
		{"duplicate level", []float64{0.5, 1.0, 0.5}, nil},
		{"duplicate level within slack", []float64{0.5, 0.5 + 1e-13}, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromPoints(2, 2, tc.levels, tc.pts); err == nil {
				t.Error("FromPoints: want error")
			}
			if tc.pts == nil {
				if _, err := BuildWith(synthetic, 2, 2, tc.levels, 1); err == nil {
					t.Error("BuildWith: want error")
				}
			}
		})
	}
	if _, err := FromPoints(2, 2, levels, []Point{pt(0.5+1e-13, 1, 1)}); err != nil {
		t.Errorf("I/O within the lookup slack of a level: %v", err)
	}
}

// The slot budget admits the largest bench's full grid at the default
// levels, saturates instead of overflowing, and is enforced before any
// grid is allocated.
func TestSlotBudget(t *testing.T) {
	nl := len(DefaultIOLevels())
	if n := Slots(4, 32, nl); n != 33*33*33*33*nl {
		t.Errorf("HMC full grid = %d slots, want %d within budget", n, 33*33*33*33*nl)
	}
	for _, tc := range []struct{ dies, maxPerDie, levels int }{
		{4, 32, 4}, {4, 1 << 30, 1}, {64, 1, 1}, {1, 1, MaxSlots},
	} {
		if n := Slots(tc.dies, tc.maxPerDie, tc.levels); n != MaxSlots+1 {
			t.Errorf("Slots(%d, %d, %d) = %d, want saturated %d", tc.dies, tc.maxPerDie, tc.levels, n, MaxSlots+1)
		}
	}
	if _, err := FromPoints(4, 32, []float64{0.25, 0.5, 0.75, 1}, nil); err == nil {
		t.Error("FromPoints over the slot budget: want error")
	}
}

// A sparse table reports only its stored points, and a missing point is
// a typed miss.
func TestSparseTableCountsOnlyStoredPoints(t *testing.T) {
	table, err := FromPoints(2, 2, []float64{0.5, 1.0}, []Point{
		{Counts: []int{0, 1}, IO: 1.0, MaxIR: 0.02},
		{Counts: []int{2, 2}, IO: 0.5, MaxIR: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if table.Entries() != 2 || table.WorstIR() != 0.05 || len(table.Points()) != 2 {
		t.Errorf("entries %d, worst %g, points %d; want 2, 0.05, 2", table.Entries(), table.WorstIR(), len(table.Points()))
	}
	if _, err := table.MaxIR([]int{0, 1}, 0.5); !errors.Is(err, ErrNotCovered) {
		t.Errorf("missing point: err %v, want ErrNotCovered", err)
	}
}
