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
	"strconv"
	"strings"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/par"
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

// Table is an immutable IR-drop look-up table.
type Table struct {
	// Dies is the DRAM die count of the design.
	Dies int
	// MaxPerDie is the largest per-die active bank count covered
	// (2 for interleaving read, §2.3).
	MaxPerDie int
	// IOLevels are the covered per-die I/O activity levels, ascending.
	IOLevels []float64

	entries map[string]float64 // key -> max IR in volts
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
	if maxPerDie < 1 {
		return nil, fmt.Errorf("lut: maxPerDie %d must be >= 1", maxPerDie)
	}
	if len(ioLevels) == 0 {
		return nil, fmt.Errorf("lut: no IO levels")
	}
	levels := append([]float64(nil), ioLevels...)
	sort.Float64s(levels)
	for _, io := range levels {
		if io <= 0 || io > 1 {
			return nil, fmt.Errorf("lut: IO level %g out of (0,1]", io)
		}
	}
	t := &Table{
		Dies:      dies,
		MaxPerDie: maxPerDie,
		IOLevels:  levels,
		entries:   make(map[string]float64),
	}
	// Enumerate all count vectors, then fan the solves out across the
	// worker pool: analyze is safe for concurrent use, and each design
	// point writes its own result slot, so no channels or locks are needed.
	var states [][]int
	counts := make([]int, dies)
	var rec func(d int)
	rec = func(d int) {
		if d == dies {
			states = append(states, append([]int(nil), counts...))
			return
		}
		for c := 0; c <= maxPerDie; c++ {
			counts[d] = c
			rec(d + 1)
		}
		counts[d] = 0
	}
	rec(0)

	irs := make([][]float64, len(states))
	err := par.Sweep(workers, len(states), func(i int) error {
		irs[i] = make([]float64, len(levels))
		for li, io := range levels {
			r, err := analyze(states[i], io)
			if err != nil {
				return err
			}
			irs[i][li] = r.MaxIR
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range states {
		for li, io := range levels {
			t.entries[key(c, io)] = irs[i][li]
		}
	}
	return t, nil
}

// FromPoints assembles a table from explicit grid points — the inverse of
// Points — for loading precomputed tables and for tests that need a table
// with known contents without running solves.
func FromPoints(dies, maxPerDie int, ioLevels []float64, pts []Point) (*Table, error) {
	if dies < 1 {
		return nil, fmt.Errorf("lut: dies %d must be >= 1", dies)
	}
	if maxPerDie < 1 {
		return nil, fmt.Errorf("lut: maxPerDie %d must be >= 1", maxPerDie)
	}
	if len(ioLevels) == 0 {
		return nil, fmt.Errorf("lut: no IO levels")
	}
	levels := append([]float64(nil), ioLevels...)
	sort.Float64s(levels)
	for _, io := range levels {
		if io <= 0 || io > 1 {
			return nil, fmt.Errorf("lut: IO level %g out of (0,1]", io)
		}
	}
	t := &Table{
		Dies:      dies,
		MaxPerDie: maxPerDie,
		IOLevels:  levels,
		entries:   make(map[string]float64, len(pts)),
	}
	for _, p := range pts {
		if len(p.Counts) != dies {
			return nil, fmt.Errorf("lut: point %v has %d dies, table covers %d", p.Counts, len(p.Counts), dies)
		}
		t.entries[key(p.Counts, p.IO)] = p.MaxIR
	}
	return t, nil
}

// Entries returns the number of stored (state, io) points.
func (t *Table) Entries() int { return len(t.entries) }

// MaxIR returns the maximum IR drop in volts for the given per-die counts
// at per-die I/O activity io. The io is rounded UP to the nearest covered
// level (conservative for constraint checks). A point outside the built
// grid — mismatched die count, a count above MaxPerDie, io above the top
// covered level — returns a *NotCoveredError wrapping ErrNotCovered.
func (t *Table) MaxIR(counts []int, io float64) (float64, error) {
	if len(counts) != t.Dies {
		return 0, notCovered(counts, io, "%d dies, table covers %d", len(counts), t.Dies)
	}
	for d, c := range counts {
		if c < 0 || c > t.MaxPerDie {
			return 0, notCovered(counts, io, "count %d on die %d outside [0,%d]", c, d+1, t.MaxPerDie)
		}
	}
	if top := t.IOLevels[len(t.IOLevels)-1]; io > top+1e-12 {
		return 0, notCovered(counts, io, "activity %g above the top covered level %g", io, top)
	}
	level := t.IOLevels[len(t.IOLevels)-1]
	for i := len(t.IOLevels) - 1; i >= 0; i-- {
		if t.IOLevels[i] >= io-1e-12 {
			level = t.IOLevels[i]
		} else {
			break
		}
	}
	v, ok := t.entries[key(counts, level)]
	if !ok {
		return 0, notCovered(counts, io, "no entry at covered level %g", level)
	}
	return v, nil
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
	out := make([]Point, 0, len(t.entries))
	for _, counts := range memstate.EnumerateCounts(t.Dies, t.MaxPerDie) {
		for _, io := range t.IOLevels {
			v, ok := t.entries[key(counts, io)]
			if !ok {
				continue
			}
			out = append(out, Point{Counts: append([]int(nil), counts...), IO: io, MaxIR: v})
		}
	}
	return out
}

// WorstIR returns the largest IR drop stored in the table.
func (t *Table) WorstIR() float64 {
	var mx float64
	for _, v := range t.entries {
		if v > mx {
			mx = v
		}
	}
	return mx
}

func key(counts []int, io float64) string {
	var sb strings.Builder
	for i, c := range counts {
		if i > 0 {
			sb.WriteByte('-')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	fmt.Fprintf(&sb, "@%.4f", io)
	return sb.String()
}
