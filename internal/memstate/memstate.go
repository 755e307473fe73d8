// Package memstate represents 3D DRAM memory states — which banks are
// active on which die — in the paper's "R1-R2-R3-R4" notation, along with
// the explicit bank-placement cases of Figure 8 used for the intra-pair
// overlapping study, and state enumeration for the IR-drop look-up table.
package memstate

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxInterleavedBanks is the per-die cap on simultaneously-read banks:
// interleaving mode reads at most two banks per die to avoid overdrawing
// the charge pumps (paper §2.3).
const MaxInterleavedBanks = 2

// State is a memory state: the active bank indices on every die of the
// stack, bottom die (DRAM1) first.
type State struct {
	// Dies[d] lists the active bank indices on die d.
	Dies [][]int
}

// FromCounts builds a state with the given per-die active-bank counts using
// the worst-case placement (paper §5.1: active banks on the die edge) taken
// from the placement function pl. pl(die, n) must return n distinct banks.
func FromCounts(counts []int, pl Placement) (State, error) {
	s := State{Dies: make([][]int, len(counts))}
	for d, n := range counts {
		if n < 0 {
			return State{}, fmt.Errorf("memstate: negative bank count %d on die %d", n, d)
		}
		if n == 0 {
			continue
		}
		banks, err := pl(d, n)
		if err != nil {
			return State{}, err
		}
		if len(banks) != n {
			return State{}, fmt.Errorf("memstate: placement returned %d banks on die %d, want %d", len(banks), d, n)
		}
		s.Dies[d] = banks
	}
	return s, nil
}

// Placement maps (die, count) to explicit active bank indices.
type Placement func(die, count int) ([]int, error)

// WorstCaseEdge returns the paper's default worst-case placement for a die
// with numBanks banks laid out DDR3-style (2 columns x numBanks/2 rows):
// banks are activated from the top die corner inward, concentrating current
// in one region far from the center peripheral strip.
func WorstCaseEdge(numBanks int) Placement {
	return func(die, count int) ([]int, error) {
		if count > numBanks {
			return nil, fmt.Errorf("memstate: %d active banks exceed %d banks per die", count, numBanks)
		}
		// Highest-index banks sit in the top rows of the layout; take
		// them pairwise from the top so two banks land stacked in one
		// column at the die edge.
		banks := make([]int, count)
		for i := 0; i < count; i++ {
			banks[i] = numBanks - 1 - 2*i
			if banks[i] < 0 {
				banks[i] = numBanks - 1 - (2*i+1)%numBanks
			}
		}
		return banks, nil
	}
}

// Counts returns the per-die active bank counts (the R1..Rn of the paper's
// notation).
func (s State) Counts() []int {
	out := make([]int, len(s.Dies))
	for d, banks := range s.Dies {
		out[d] = len(banks)
	}
	return out
}

// NumDies returns the die count of the state.
func (s State) NumDies() int { return len(s.Dies) }

// Active reports whether bank b on die d is active.
func (s State) Active(die, bank int) bool {
	if die < 0 || die >= len(s.Dies) {
		return false
	}
	for _, b := range s.Dies[die] {
		if b == bank {
			return true
		}
	}
	return false
}

// String renders the paper's "R1-R2-R3-R4" notation.
func (s State) String() string {
	parts := make([]string, len(s.Dies))
	for d, banks := range s.Dies {
		parts[d] = strconv.Itoa(len(banks))
	}
	return strings.Join(parts, "-")
}

// Key returns a canonical identity string that includes explicit bank
// placements, usable as a map key.
func (s State) Key() string {
	var sb strings.Builder
	for d, banks := range s.Dies {
		if d > 0 {
			sb.WriteByte('|')
		}
		sorted := append([]int(nil), banks...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for i, b := range sorted {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(b))
		}
	}
	return sb.String()
}

// ParseCounts parses "0-0-0-2" into per-die counts. It rejects malformed
// syntax (empty or non-numeric components, negative counts) but knows
// nothing about the target design; use ParseCountsFor to also enforce the
// die count and per-die bank cap.
func ParseCounts(s string) ([]int, error) {
	parts := strings.Split(s, "-")
	out := make([]int, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("memstate: bad state %q: empty count at position %d", s, i+1)
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("memstate: bad state %q: %q is not a count", s, p)
		}
		if n < 0 {
			return nil, fmt.Errorf("memstate: bad state %q: negative count %d", s, n)
		}
		out[i] = n
	}
	return out, nil
}

// ParseCountsFor parses "R1-R2-...-Rn" and validates it against a design:
// exactly dies components, each in [0, banksPerDie]. Every entry point that
// accepts user state strings — the CLIs and the analysis server — goes
// through this one function, so malformed states fail with one consistent
// "memstate: bad state ..." error format everywhere.
func ParseCountsFor(s string, dies, banksPerDie int) ([]int, error) {
	out, err := ParseCounts(s)
	if err != nil {
		return nil, err
	}
	if len(out) != dies {
		return nil, fmt.Errorf("memstate: bad state %q: %d dies, design has %d", s, len(out), dies)
	}
	for d, n := range out {
		if n > banksPerDie {
			return nil, fmt.Errorf("memstate: bad state %q: %d active banks on die %d exceed %d banks per die", s, n, d+1, banksPerDie)
		}
	}
	return out, nil
}

// EnumerateCounts yields every per-die count vector with entries in
// [0, maxPerDie] for the given die count, in lexicographic order. This is
// the LUT's state axis.
func EnumerateCounts(dies, maxPerDie int) [][]int {
	if dies <= 0 {
		return nil
	}
	total := 1
	for i := 0; i < dies; i++ {
		total *= maxPerDie + 1
	}
	out := make([][]int, 0, total)
	cur := make([]int, dies)
	for {
		out = append(out, append([]int(nil), cur...))
		// Increment little-endian with carry.
		i := dies - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= maxPerDie {
				break
			}
			cur[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}
