package floorplan

import (
	"math"
	"strings"
	"testing"

	"pdn3d/internal/geom"
)

func TestDDR3DieDefault(t *testing.T) {
	f, err := DDR3Die(DefaultDDR3())
	if err != nil {
		t.Fatalf("DDR3Die: %v", err)
	}
	if f.NumBanks != 8 {
		t.Fatalf("NumBanks = %d, want 8", f.NumBanks)
	}
	if got := len(f.KindBlocks(BankArray)); got != 8 {
		t.Errorf("bank arrays = %d, want 8", got)
	}
	if got := len(f.KindBlocks(RowDecoder)); got != 8 {
		t.Errorf("row decoders = %d, want 8", got)
	}
	if len(f.KindBlocks(Peripheral)) != 1 || len(f.KindBlocks(ColumnPath)) != 2 {
		t.Error("missing peripheral / column-path strips")
	}
	if w, h := f.Outline.W(), f.Outline.H(); w != 6.8 || h != 6.7 {
		t.Errorf("outline %gx%g, want 6.8x6.7", w, h)
	}
}

func TestDDR3BankLookup(t *testing.T) {
	f, _ := DDR3Die(DefaultDDR3())
	for b := 0; b < 8; b++ {
		if r := bankArray(t, f, b); r.Empty() {
			t.Errorf("bank %d rect empty", b)
		}
		if got := len(f.BankBlocks(b)); got != 2 {
			t.Errorf("bank %d owns %d blocks, want 2 (array + rowdec)", b, got)
		}
	}
}

func TestDDR3TopBankTouchesDieTop(t *testing.T) {
	f, _ := DDR3Die(DefaultDDR3())
	r := bankArray(t, f, 7)
	if math.Abs(r.Y1-f.Outline.Y1) > 1e-9 {
		t.Errorf("top bank ends at y=%g, want die top %g", r.Y1, f.Outline.Y1)
	}
	r0 := bankArray(t, f, 0)
	if r0.Y0 != 0 {
		t.Errorf("bottom bank starts at y=%g, want 0", r0.Y0)
	}
}

func TestDDR3SymmetricAboutVerticalAxis(t *testing.T) {
	// F2F mating requires the PDN-relevant layout to be mirror symmetric:
	// every bank array must have a mirror partner (paper §4.2).
	f, _ := DDR3Die(DefaultDDR3())
	m := f.MirrorX()
	for b := 0; b < f.NumBanks; b++ {
		r := bankArray(t, m, b)
		found := false
		for bb := 0; bb < f.NumBanks; bb++ {
			o := bankArray(t, f, bb)
			if rectApprox(r, o) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mirrored bank %d %v has no partner in original layout", b, r)
		}
	}
}

func TestDDR3RejectsBadBankCount(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6} {
		if _, err := DDR3Die(DDR3Spec{W: 6.8, H: 6.7, Banks: n}); err == nil {
			t.Errorf("Banks=%d: want error", n)
		}
	}
}

func TestWideIODieDefault(t *testing.T) {
	f, err := WideIODie(DefaultWideIO())
	if err != nil {
		t.Fatalf("WideIODie: %v", err)
	}
	if f.NumBanks != 16 {
		t.Fatalf("NumBanks = %d, want 16", f.NumBanks)
	}
	// JEDEC center bump field must sit at the die center.
	var bump Block
	for _, bl := range f.Blocks {
		if bl.Kind == TSVRegion {
			bump = bl
		}
	}
	if bump.Name == "" {
		t.Fatal("no center bump field")
	}
	c, dc := bump.Rect.Center(), f.Outline.Center()
	if math.Abs(c.X-dc.X) > 1e-9 || math.Abs(c.Y-dc.Y) > 1e-9 {
		t.Errorf("bump field center %v, want die center %v", c, dc)
	}
	if _, err := WideIODie(WideIOSpec{W: 7.2, H: 7.2, Banks: 8}); err == nil {
		t.Error("Banks=8: want error")
	}
}

func TestHMCDieDefault(t *testing.T) {
	f, err := HMCDie(DefaultHMC())
	if err != nil {
		t.Fatalf("HMCDie: %v", err)
	}
	if f.NumBanks != 32 {
		t.Fatalf("NumBanks = %d, want 32", f.NumBanks)
	}
	alleys := f.KindBlocks(TSVRegion)
	if len(alleys) != 7 {
		t.Errorf("TSV alleys = %d, want 7 (between 8 bank columns)", len(alleys))
	}
	if _, err := HMCDie(HMCSpec{W: 7.2, H: 6.4, Banks: 16}); err == nil {
		t.Error("Banks=16: want error")
	}
}

func TestT2DieDefault(t *testing.T) {
	f, err := T2Die(DefaultT2())
	if err != nil {
		t.Fatalf("T2Die: %v", err)
	}
	if got := len(f.KindBlocks(Core)); got != 8 {
		t.Errorf("cores = %d, want 8", got)
	}
	if got := len(f.KindBlocks(Cache)); got != 2 {
		t.Errorf("cache blocks = %d, want 2", got)
	}
	if got := len(f.KindBlocks(Uncore)); got != 1 {
		t.Errorf("uncore blocks = %d, want 1", got)
	}
	if _, err := T2Die(T2Spec{W: 9, H: 8, Cores: 3}); err == nil {
		t.Error("Cores=3: want error")
	}
}

func TestHMCLogicDieDefault(t *testing.T) {
	f, err := HMCLogicDie(DefaultHMCLogic())
	if err != nil {
		t.Fatalf("HMCLogicDie: %v", err)
	}
	if got := len(f.KindBlocks(Core)); got != 16 {
		t.Errorf("vault controllers = %d, want 16", got)
	}
	if _, err := HMCLogicDie(HMCLogicSpec{W: 8.8, H: 6.4, Vaults: 6}); err == nil {
		t.Error("Vaults=6: want error")
	}
}

func TestAllDefaultFloorplansValidate(t *testing.T) {
	build := []func() (*Floorplan, error){
		func() (*Floorplan, error) { return DDR3Die(DefaultDDR3()) },
		func() (*Floorplan, error) { return WideIODie(DefaultWideIO()) },
		func() (*Floorplan, error) { return HMCDie(DefaultHMC()) },
		func() (*Floorplan, error) { return T2Die(DefaultT2()) },
		func() (*Floorplan, error) { return HMCLogicDie(DefaultHMCLogic()) },
	}
	for _, mk := range build {
		f, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		// Mirrored copies must also validate (F2F mask mirroring).
		if err := f.MirrorX().Validate(); err != nil {
			t.Errorf("%s mirrored: %v", f.Name, err)
		}
	}
}

func TestValidateCatchesEscapesAndOverlaps(t *testing.T) {
	f, _ := DDR3Die(DefaultDDR3())
	bad := *f
	bad.Blocks = append([]Block(nil), f.Blocks...)
	r := bad.Blocks[3].Rect
	bad.Blocks[3].Rect = geom.Rect{X0: r.X0 + f.Outline.W(), Y0: r.Y0, X1: r.X1 + f.Outline.W(), Y1: r.Y1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Errorf("escape: err = %v", err)
	}

	dup := *f
	dup.Blocks = append([]Block(nil), f.Blocks...)
	for i, bl := range dup.Blocks {
		if bl.Kind == BankArray && bl.Bank == 1 {
			r0 := bankArray(t, f, 0)
			dup.Blocks[i].Rect = r0
		}
	}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("overlap: err = %v", err)
	}
}

func TestBlockKindString(t *testing.T) {
	kinds := []BlockKind{BankArray, RowDecoder, ColumnPath, Peripheral, TSVRegion, Core, Cache, Uncore}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d: bad or duplicate string %q", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(BlockKind(200).String(), "200") {
		t.Error("unknown kind should include numeric value")
	}
}

func rectApprox(a, b geom.Rect) bool {
	const eps = 1e-9
	return math.Abs(a.X0-b.X0) < eps && math.Abs(a.Y0-b.Y0) < eps &&
		math.Abs(a.X1-b.X1) < eps && math.Abs(a.Y1-b.Y1) < eps
}

// bankArray returns the cell-array rectangle of bank b, failing the test
// when the floorplan has none.
func bankArray(t *testing.T, f *Floorplan, b int) geom.Rect {
	t.Helper()
	for _, bl := range f.Blocks {
		if bl.Bank == b && bl.Kind == BankArray {
			return bl.Rect
		}
	}
	t.Fatalf("floorplan %s: no bank array for bank %d", f.Name, b)
	return geom.Rect{}
}
