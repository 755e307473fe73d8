// Package lut builds the IR-drop look-up table at the heart of the paper's
// IR-drop-aware read policies (§5.2): for every memory state (per-die
// active-bank counts) and a set of per-die I/O activity levels, the maximum
// IR drop is pre-computed with the R-Mesh engine and stored for O(1)
// queries by the memory controller.
package lut

import (
	"errors"
	"fmt"
	"sort"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/par"
	"pdn3d/internal/units"
)

// ErrNotCovered is the sentinel every MaxIR miss wraps: the queried
// (state, io) point lies outside the built grid. Callers branch with
// errors.Is(err, ErrNotCovered) — the memory controller to stay
// conservative, the analysis server to answer HTTP 422 — and recover the
// offending point through errors.As with *NotCoveredError.
var ErrNotCovered = errors.New("lut: point not covered")

// NotCoveredError is a typed MaxIR miss carrying the offending key.
type NotCoveredError struct {
	// Counts is the queried per-die count vector.
	Counts []int
	// IO is the queried per-die I/O activity.
	IO float64
	// Reason says which axis fell outside the table.
	Reason string
}

func (e *NotCoveredError) Error() string {
	return fmt.Sprintf("lut: %v@%g not covered: %s", e.Counts, e.IO, e.Reason)
}

// Unwrap ties every miss to the ErrNotCovered sentinel.
func (e *NotCoveredError) Unwrap() error { return ErrNotCovered }

func notCovered(counts []int, io float64, format string, args ...interface{}) error {
	return &NotCoveredError{
		Counts: append([]int(nil), counts...),
		IO:     io,
		Reason: fmt.Sprintf(format, args...),
	}
}

// ioSlack is the tolerance within which an I/O activity matches a covered
// level.
const ioSlack = 1e-12

// Table is an immutable IR-drop look-up table.
type Table struct {
	// Dies is the DRAM die count of the design.
	Dies int
	// MaxPerDie is the largest per-die active bank count covered
	// (2 for interleaving read, §2.3).
	MaxPerDie int
	// IOLevels are the covered per-die I/O activity levels, ascending.
	IOLevels []float64

	// vals is the dense grid of max IR drops in volts, one slot per
	// (state, level): the count vector read as a base-(MaxPerDie+1)
	// number, times len(IOLevels), plus the level index. has marks the
	// slots that hold a stored point.
	vals []float64
	has  []bool
}

// DefaultIOLevels covers the paper's Table 5 activity points. With the
// shared zero-bubble bus, per-die activity is 1/k for k active dies, so
// these levels cover stacks of up to four dies exactly.
func DefaultIOLevels() []float64 { return []float64{0.25, 0.5, 1.0} }

// Build pre-computes the table with the given analyzer using one worker
// per CPU. The analyzer's design defines the die and bank counts; states
// use the worst-case edge placement like the paper's Table 5.
func Build(a *irdrop.Analyzer, maxPerDie int, ioLevels []float64) (*Table, error) {
	return BuildWith(a.AnalyzeCounts, a.Spec().NumDRAM, maxPerDie, ioLevels, 0)
}

// BuildWith is Build over an arbitrary per-point analysis of a dies-die
// design, with an explicit worker budget (<= 0 selects GOMAXPROCS).
// analyze maps a per-die count vector and I/O level to its result and
// must be safe for concurrent use; a caller that memoizes analyses
// passes its memo here (Build passes Analyzer.AnalyzeCounts). Design
// points fan out across the pool; the table contents are identical for
// every worker count.
func BuildWith(analyze func(counts []int, io float64) (*irdrop.Result, error), dies, maxPerDie int, ioLevels []float64, workers int) (*Table, error) {
	t, err := newTable(dies, maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	// EnumerateCounts lists the states in grid order, and each design
	// point writes its own slot, so the solves fan out across the worker
	// pool without channels or locks.
	states := memstate.EnumerateCounts(dies, maxPerDie)
	nl := len(t.IOLevels)
	err = par.Sweep(workers, len(states), func(i int) error {
		for li, io := range t.IOLevels {
			r, err := analyze(states[i], io)
			if err != nil {
				return err
			}
			t.vals[i*nl+li] = r.MaxIR
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range t.has {
		t.has[i] = true
	}
	return t, nil
}

// FromPoints assembles a table from explicit grid points — the inverse of
// Points — for loading precomputed tables and for tests that need a table
// with known contents without running solves. Every point must lie on the
// grid (a point off it is a *NotCoveredError; an I/O off every level is an
// error too) and appear once.
func FromPoints(dies, maxPerDie int, ioLevels []float64, pts []Point) (*Table, error) {
	t, err := newTable(dies, maxPerDie, ioLevels)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		i, err := t.state(p.Counts, p.IO)
		if err != nil {
			return nil, err
		}
		li := t.level(p.IO)
		if li < 0 {
			return nil, fmt.Errorf("lut: point %v@%g is on no IO level %v", p.Counts, p.IO, t.IOLevels)
		}
		i = i*len(t.IOLevels) + li
		if t.has[i] {
			return nil, fmt.Errorf("lut: duplicate point %v@%g", p.Counts, p.IO)
		}
		t.vals[i], t.has[i] = p.MaxIR, true
	}
	return t, nil
}

// MaxSlots bounds the (state, level) slots one table may hold: newTable
// allocates every slot up front and a build solves each one. It admits
// every bench's full grid (max per die = banks per die) at the default
// levels — HMC's 33^4 states × 3 levels is 3.6M slots — and keeps the
// largest allocation under 40 MB.
const MaxSlots = 1 << 22

// Levels validates a set of I/O levels and returns them sorted ascending
// in a new slice. Every level must lie in (0,1] and no two may match
// within the lookup slack, else a lookup could not tell them apart.
func Levels(ioLevels []float64) ([]float64, error) {
	if len(ioLevels) == 0 {
		return nil, fmt.Errorf("lut: no IO levels")
	}
	levels := append([]float64(nil), ioLevels...)
	sort.Float64s(levels)
	for i, io := range levels {
		if !(io > 0 && io <= 1) {
			return nil, fmt.Errorf("lut: IO level %g out of (0,1]", io)
		}
		if i > 0 && units.ApproxEqual(io, levels[i-1], ioSlack) {
			return nil, fmt.Errorf("lut: duplicate IO level %g", io)
		}
	}
	return levels, nil
}

// Slots returns the grid size (maxPerDie+1)^dies × levels, saturating at
// MaxSlots+1 so that an oversized grid reads as too big without
// overflowing.
func Slots(dies, maxPerDie, levels int) int {
	n := levels
	for d := 0; d < dies; d++ {
		if n > MaxSlots/(maxPerDie+1) {
			return MaxSlots + 1
		}
		n *= maxPerDie + 1
	}
	return min(n, MaxSlots+1)
}

// newTable validates the grid axes and allocates an empty grid over them.
func newTable(dies, maxPerDie int, ioLevels []float64) (*Table, error) {
	if dies < 1 {
		return nil, fmt.Errorf("lut: dies %d must be >= 1", dies)
	}
	if maxPerDie < 1 {
		return nil, fmt.Errorf("lut: maxPerDie %d must be >= 1", maxPerDie)
	}
	levels, err := Levels(ioLevels)
	if err != nil {
		return nil, err
	}
	n := Slots(dies, maxPerDie, len(levels))
	if n > MaxSlots {
		return nil, fmt.Errorf("lut: %d dies × %d counts × %d levels exceeds %d slots", dies, maxPerDie+1, len(levels), MaxSlots)
	}
	return &Table{
		Dies:      dies,
		MaxPerDie: maxPerDie,
		IOLevels:  levels,
		vals:      make([]float64, n),
		has:       make([]bool, n),
	}, nil
}

// state returns the grid index of a count vector. A vector of the wrong
// length or with a count outside [0, MaxPerDie] is a *NotCoveredError.
func (t *Table) state(counts []int, io float64) (int, error) {
	if len(counts) != t.Dies {
		return 0, notCovered(counts, io, "%d dies, table covers %d", len(counts), t.Dies)
	}
	i := 0
	for d, c := range counts {
		if c < 0 || c > t.MaxPerDie {
			return 0, notCovered(counts, io, "count %d on die %d outside [0,%d]", c, d+1, t.MaxPerDie)
		}
		i = i*(t.MaxPerDie+1) + c
	}
	return i, nil
}

// level returns the index of the covered level io matches, or -1.
func (t *Table) level(io float64) int {
	for li, l := range t.IOLevels {
		if units.ApproxEqual(io, l, ioSlack) {
			return li
		}
	}
	return -1
}

// Entries returns the number of stored (state, io) points.
func (t *Table) Entries() int {
	n := 0
	for _, ok := range t.has {
		if ok {
			n++
		}
	}
	return n
}

// MaxIR returns the maximum IR drop in volts for the given per-die counts
// at per-die I/O activity io. The io is rounded UP to the nearest covered
// level (conservative for constraint checks). A point outside the built
// grid — mismatched die count, a count above MaxPerDie, io above the top
// covered level — returns a *NotCoveredError wrapping ErrNotCovered.
func (t *Table) MaxIR(counts []int, io float64) (float64, error) {
	i, err := t.state(counts, io)
	if err != nil {
		return 0, err
	}
	li := len(t.IOLevels) - 1
	if top := t.IOLevels[li]; io > top+ioSlack {
		return 0, notCovered(counts, io, "activity %g above the top covered level %g", io, top)
	}
	for li > 0 && t.IOLevels[li-1] >= io-ioSlack {
		li--
	}
	i = i*len(t.IOLevels) + li
	if !t.has[i] {
		return 0, notCovered(counts, io, "no entry at covered level %g", t.IOLevels[li])
	}
	return t.vals[i], nil
}

// Point is one stored (state, io) grid point.
type Point struct {
	// Counts is the per-die active-bank vector.
	Counts []int
	// IO is the per-die I/O activity level.
	IO float64
	// MaxIR is the stored maximum IR drop in volts.
	MaxIR float64
}

// Points returns every stored grid point in deterministic order
// (lexicographic states, then ascending I/O levels) — the /v1/lut dump
// format, byte-identical across worker counts and runs.
func (t *Table) Points() []Point {
	out := make([]Point, 0, t.Entries())
	nl := len(t.IOLevels)
	for si, counts := range memstate.EnumerateCounts(t.Dies, t.MaxPerDie) {
		for li, io := range t.IOLevels {
			if i := si*nl + li; t.has[i] {
				out = append(out, Point{Counts: append([]int(nil), counts...), IO: io, MaxIR: t.vals[i]})
			}
		}
	}
	return out
}

// WorstIR returns the largest IR drop stored in the table.
func (t *Table) WorstIR() float64 {
	var mx float64
	for i, v := range t.vals {
		if t.has[i] && v > mx {
			mx = v
		}
	}
	return mx
}
