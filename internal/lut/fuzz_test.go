package lut

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pdn3d/internal/memstate"
)

// oracle is the string-keyed map the table used before the dense grid,
// with its lookup rules; the fuzz target holds the grid to it.
type oracle struct {
	dies, maxPerDie int
	levels          []float64
	entries         map[string]float64
}

func oracleKey(counts []int, io float64) string {
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

func (o *oracle) maxIR(counts []int, io float64) (float64, bool) {
	if len(counts) != o.dies {
		return 0, false
	}
	for _, c := range counts {
		if c < 0 || c > o.maxPerDie {
			return 0, false
		}
	}
	top := o.levels[len(o.levels)-1]
	if io > top+1e-12 {
		return 0, false
	}
	level := top
	for i := len(o.levels) - 1; i >= 0; i-- {
		if o.levels[i] >= io-1e-12 {
			level = o.levels[i]
		} else {
			break
		}
	}
	v, ok := o.entries[oracleKey(counts, level)]
	return v, ok
}

func (o *oracle) points() []Point {
	out := []Point{}
	for _, counts := range memstate.EnumerateCounts(o.dies, o.maxPerDie) {
		for _, io := range o.levels {
			if v, ok := o.entries[oracleKey(counts, io)]; ok {
				out = append(out, Point{Counts: counts, IO: io, MaxIR: v})
			}
		}
	}
	return out
}

// FuzzLUTLookup builds a random sparse table through FromPoints and
// checks MaxIR on random probes, and the Points dump, against the
// map-keyed oracle. Levels are multiples of 1/8, so the oracle's
// four-decimal keys never collide.
func FuzzLUTLookup(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0b1010_0010), int64(1), []byte{0, 1, 2, 3, 8, 255, 7, 7, 7, 7, 64})
	f.Add(uint8(4), uint8(2), uint8(0xff), int64(7), []byte{3, 3, 3, 3, 3, 3, 100, 200, 1, 2, 0, 9})
	f.Add(uint8(0), uint8(0), uint8(0), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, dies, maxPerDie, levelBits uint8, seed int64, probes []byte) {
		d := 1 + int(dies)%5
		m := 1 + int(maxPerDie)%3
		var levels []float64
		for k := 0; k < 8; k++ {
			if levelBits&(1<<k) != 0 {
				levels = append(levels, float64(k+1)/8)
			}
		}
		if len(levels) == 0 {
			levels = []float64{1}
		}
		rng := rand.New(rand.NewSource(seed))
		o := &oracle{dies: d, maxPerDie: m, levels: levels, entries: map[string]float64{}}
		var pts []Point
		for _, counts := range memstate.EnumerateCounts(d, m) {
			for _, io := range levels {
				if rng.Intn(4) == 0 {
					continue
				}
				v := rng.Float64() / 10
				pts = append(pts, Point{Counts: counts, IO: io, MaxIR: v})
				o.entries[oracleKey(counts, io)] = v
			}
		}
		// FromPoints must not depend on the order points arrive in.
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		table, err := FromPoints(d, m, levels, pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := table.Points(); !reflect.DeepEqual(got, o.points()) {
			t.Fatalf("Points() differs from the oracle dump (%d vs %d points)", len(got), len(o.points()))
		}

		for len(probes) > 0 {
			n := d
			if probes[0]%11 == 0 {
				n = d + 1 - 2*int(probes[0]%2) // a wrong die count
			}
			if len(probes) < n+2 {
				return
			}
			counts := make([]int, n)
			for i := range counts {
				counts[i] = int(probes[1+i])%(m+3) - 1
			}
			io := float64(probes[n+1]) / 200
			if probes[n+1]%3 == 0 {
				io = levels[int(probes[n+1])%len(levels)]
			}
			probes = probes[n+2:]

			want, ok := o.maxIR(counts, io)
			got, err := table.MaxIR(counts, io)
			switch {
			case ok && err != nil:
				t.Fatalf("MaxIR(%v, %g): %v, oracle has %g", counts, io, err, want)
			case !ok && !errors.Is(err, ErrNotCovered):
				t.Fatalf("MaxIR(%v, %g) = %g, %v; oracle misses", counts, io, got, err)
			case ok && math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("MaxIR(%v, %g) = %g, oracle %g", counts, io, got, want)
			}
		}
	})
}
