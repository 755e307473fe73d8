package memstate

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromCountsAndString(t *testing.T) {
	s, err := FromCounts([]int{0, 0, 0, 2}, WorstCaseEdge(8))
	if err != nil {
		t.Fatalf("FromCounts: %v", err)
	}
	if got := s.String(); got != "0-0-0-2" {
		t.Errorf("String = %q, want 0-0-0-2", got)
	}
	if !reflect.DeepEqual(s.Dies[3], []int{7, 5}) {
		t.Errorf("worst-case placement = %v, want [7 5]", s.Dies[3])
	}
}

func TestFromCountsErrors(t *testing.T) {
	if _, err := FromCounts([]int{-1}, WorstCaseEdge(8)); err == nil {
		t.Error("negative count: want error")
	}
	if _, err := FromCounts([]int{9}, WorstCaseEdge(8)); err == nil {
		t.Error("too many banks: want error")
	}
}

func TestActive(t *testing.T) {
	s := MustPairState("", "", "", PairA)
	if !s.Active(3, 5) || !s.Active(3, 7) {
		t.Error("banks 5,7 on die 4 should be active")
	}
	if s.Active(3, 4) || s.Active(0, 5) || s.Active(9, 5) || s.Active(-1, 0) {
		t.Error("inactive/out-of-range banks reported active")
	}
}

func TestParseCounts(t *testing.T) {
	got, err := ParseCounts("0-0-2-2")
	if err != nil {
		t.Fatalf("ParseCounts: %v", err)
	}
	if !reflect.DeepEqual(got, []int{0, 0, 2, 2}) {
		t.Errorf("ParseCounts = %v", got)
	}
	for _, bad := range []string{"", "0-x-0-0", "0--1-0", "1--2", "-1-0-0-0", "0-0-0-", "0-0- -0", "1.5-0-0-0"} {
		if _, err := ParseCounts(bad); err == nil {
			t.Errorf("ParseCounts(%q): want error", bad)
		}
	}
}

func TestParseCountsFor(t *testing.T) {
	got, err := ParseCountsFor("0-0-0-2", 4, 8)
	if err != nil {
		t.Fatalf("ParseCountsFor: %v", err)
	}
	if !reflect.DeepEqual(got, []int{0, 0, 0, 2}) {
		t.Errorf("ParseCountsFor = %v", got)
	}
	tests := []struct {
		name    string
		s       string
		dies    int
		banks   int
		wantErr string
	}{
		{"wrong die count short", "0-0-2", 4, 8, "3 dies, design has 4"},
		{"wrong die count long", "0-0-0-0-2", 4, 8, "5 dies, design has 4"},
		{"count over banks", "0-0-0-9", 4, 8, "exceed 8 banks per die"},
		{"negative", "0-0-0--2", 4, 8, "bad state"},
		{"garbage", "zero-0-0-0", 4, 8, "is not a count"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCountsFor(tc.s, tc.dies, tc.banks)
			if err == nil {
				t.Fatalf("ParseCountsFor(%q, %d, %d): want error", tc.s, tc.dies, tc.banks)
			}
			if !strings.Contains(err.Error(), "memstate: bad state") {
				t.Errorf("error %q missing the consistent prefix", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		counts := []int{int(a % 3), int(b % 3), int(c % 3), int(d % 3)}
		s, err := FromCounts(counts, WorstCaseEdge(8))
		if err != nil {
			return false
		}
		back, err := ParseCounts(s.String())
		return err == nil && reflect.DeepEqual(back, counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyIsOrderInsensitiveWithinDie(t *testing.T) {
	a := State{Dies: [][]int{{7, 5}, nil}}
	b := State{Dies: [][]int{{5, 7}, nil}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := State{Dies: [][]int{nil, {5, 7}}}
	if a.Key() == c.Key() {
		t.Error("different dies must produce different keys")
	}
}

func TestEnumerateCounts(t *testing.T) {
	all := EnumerateCounts(4, 2)
	if len(all) != 81 {
		t.Fatalf("EnumerateCounts(4,2) = %d states, want 3^4 = 81", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		s, _ := FromCounts(c, WorstCaseEdge(8))
		k := s.String()
		if seen[k] {
			t.Fatalf("duplicate state %s", k)
		}
		seen[k] = true
		for _, n := range c {
			if n < 0 || n > 2 {
				t.Fatalf("count out of range in %v", c)
			}
		}
	}
	if !seen["0-0-0-0"] || !seen["2-2-2-2"] || !seen["0-0-0-2"] {
		t.Error("expected corner states missing")
	}
	if got := EnumerateCounts(0, 2); got != nil {
		t.Error("zero dies should enumerate nothing")
	}
}

func TestPairBanksDistinctAndValid(t *testing.T) {
	seen := map[int]PairCase{}
	for _, c := range []PairCase{PairA, PairB, PairC, PairD} {
		banks, err := PairBanks(c)
		if err != nil {
			t.Fatalf("PairBanks(%s): %v", c, err)
		}
		if len(banks) != 2 || banks[0] == banks[1] {
			t.Errorf("case %s: banks %v, want two distinct", c, banks)
		}
		for _, b := range banks {
			if b < 0 || b > 7 {
				t.Errorf("case %s: bank %d out of 8-bank range", c, b)
			}
		}
		_ = seen
	}
	if _, err := PairBanks("z"); err == nil {
		t.Error("unknown case: want error")
	}
}

func TestIntraPairOverlap(t *testing.T) {
	cases := []struct {
		state   State
		overlap bool
		name    string
	}{
		{MustPairState("", "", PairA, PairA), true, "0-0-2a-2a"},
		{MustPairState("", "", PairB, PairB), true, "0-0-2b-2b"},
		{MustPairState("", PairA, "", PairA), false, "0-2a-0-2a"},
		{MustPairState(PairA, "", "", PairA), false, "2a-0-0-2a"},
		{MustPairState("", "", PairB, PairA), false, "0-0-2b-2a"},
		{MustPairState("", "", PairC, PairA), false, "0-0-2c-2a"},
		{MustPairState("", "", PairD, PairA), false, "0-0-2d-2a"},
	}
	for _, c := range cases {
		if got := IntraPairOverlap(c.state); got != c.overlap {
			t.Errorf("%s: overlap = %v, want %v (Table 4)", c.name, got, c.overlap)
		}
	}
}

func TestWorstCasePlacementDistinct(t *testing.T) {
	pl := WorstCaseEdge(8)
	for n := 1; n <= 4; n++ {
		banks, err := pl(0, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := map[int]bool{}
		for _, b := range banks {
			if b < 0 || b > 7 || seen[b] {
				t.Fatalf("n=%d: bad or duplicate bank %d in %v", n, b, banks)
			}
			seen[b] = true
		}
	}
}
