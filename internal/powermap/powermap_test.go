package powermap

import (
	"math"
	"testing"
	"testing/quick"

	"pdn3d/internal/floorplan"
	"pdn3d/internal/geom"
)

// mod1 squashes an arbitrary quick-generated float into (0.05, 1).
func mod1(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return 0.05 + math.Mod(math.Abs(v), 0.95)
}

func ddr3() *floorplan.Floorplan {
	f, err := floorplan.DDR3Die(floorplan.DefaultDDR3())
	if err != nil {
		panic(err)
	}
	return f
}

func TestModelsValidate(t *testing.T) {
	for _, m := range []*DRAMModel{StackedDDR3Power(), WideIOPower(), HMCPower()} {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestDiePowerMatchesTable5Anchors(t *testing.T) {
	m := StackedDDR3Power()
	cases := []struct {
		io           float64
		active, idle float64
	}{
		{1.00, 220.5, 30.0},
		{0.50, 175.5, 27.0},
		{0.25, 126.0, 27.3},
	}
	for _, c := range cases {
		if got := diePower(m, 2, c.io); math.Abs(got-c.active) > 1e-9 {
			t.Errorf("diePower(2, %g) = %g, want %g (Table 5)", c.io, got, c.active)
		}
		if got := diePower(m, 0, c.io); math.Abs(got-c.idle) > 1e-9 {
			t.Errorf("diePower(0, %g) = %g, want %g (Table 5)", c.io, got, c.idle)
		}
	}
}

func TestStackTotalsMatchTable5(t *testing.T) {
	m := StackedDDR3Power()
	cases := []struct {
		counts []int
		io     float64
		total  float64
	}{
		{[]int{0, 0, 0, 2}, 1.00, 310.5},
		{[]int{0, 0, 0, 2}, 0.50, 256.5},
		{[]int{0, 0, 2, 2}, 0.50, 405.0},
		{[]int{2, 2, 2, 2}, 0.25, 507.6},
	}
	for _, c := range cases {
		var total float64
		for _, n := range c.counts {
			total += diePower(m, n, c.io)
		}
		// The paper's Table 5 itself carries ~1 % internal noise (its
		// active-die power differs slightly between rows at the same
		// activity), so compare at 1 % relative tolerance.
		if math.Abs(total-c.total) > 0.01*c.total {
			t.Errorf("state %v @%g%%: total = %g, want %g (Table 5)", c.counts, c.io*100, total, c.total)
		}
	}
}

func TestDiePowerMonotoneInIOAndBanks(t *testing.T) {
	m := StackedDDR3Power()
	// Monotonicity is claimed for active dies only: the measured standby
	// anchors wobble by a few hundred µW across activities.
	f := func(ioRaw, io2Raw float64, n1, n2 uint8) bool {
		io1 := mod1(ioRaw)
		io2 := mod1(io2Raw)
		if io1 > io2 {
			io1, io2 = io2, io1
		}
		b1, b2 := 1+int(n1%2), 1+int(n2%2)
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		return diePower(m, b1, io1) <= diePower(m, b2, io1)+1e-9 &&
			diePower(m, b2, io1) <= diePower(m, b2, io2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInterpClampsOutsideAnchors(t *testing.T) {
	m := StackedDDR3Power()
	if got := diePower(m, 2, 0.01); math.Abs(got-126.0) > 1e-9 {
		t.Errorf("below range: %g, want clamp to 126.0", got)
	}
	if got := diePower(m, 2, 2.0); math.Abs(got-220.5) > 1e-9 {
		t.Errorf("above range: %g, want clamp to 220.5", got)
	}
}

func TestLoadsConservePower(t *testing.T) {
	m := StackedDDR3Power()
	fp := ddr3()
	for _, tc := range []struct {
		active []int
		io     float64
	}{
		{nil, 1.0},
		{[]int{7, 5}, 1.0},
		{[]int{7}, 0.5},
		{[]int{0, 1}, 0.25},
	} {
		loads, err := m.Loads(fp, tc.active, tc.io)
		if err != nil {
			t.Fatalf("Loads(%v): %v", tc.active, err)
		}
		want := diePower(m, len(tc.active), tc.io)
		if got := TotalPower(loads); math.Abs(got-want) > 1e-6 {
			t.Errorf("active=%v io=%g: loads sum %g, want %g", tc.active, tc.io, got, want)
		}
		for _, l := range loads {
			if l.P < 0 {
				t.Errorf("negative load %v", l)
			}
			if !fp.Outline.Intersect(l.Rect).Empty() == false {
				t.Errorf("load rect %v outside die", l.Rect)
			}
		}
	}
}

func TestLoadsActiveBankGetsThePower(t *testing.T) {
	m := StackedDDR3Power()
	fp := ddr3()
	loads, err := m.Loads(fp, []int{7}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var bank7, bank0 geom.Rect
	for _, bl := range fp.KindBlocks(floorplan.BankArray) {
		switch bl.Bank {
		case 7:
			bank7 = bl.Rect
		case 0:
			bank0 = bl.Rect
		}
	}
	var p7, p0 float64
	for _, l := range loads {
		if l.Rect == bank7 {
			p7 += l.P
		}
		if l.Rect == bank0 {
			p0 += l.P
		}
	}
	if p7 <= p0 {
		t.Errorf("active bank 7 power %g should exceed idle bank 0 power %g", p7, p0)
	}
	if p7 < 10 {
		t.Errorf("active bank power %g mW implausibly small", p7)
	}
}

func TestLoadsRejectsBadBank(t *testing.T) {
	m := StackedDDR3Power()
	if _, err := m.Loads(ddr3(), []int{99}, 1.0); err == nil {
		t.Error("want error for out-of-range bank")
	}
}

func TestWideIOBelowHMCPower(t *testing.T) {
	w, h, d := WideIOPower(), HMCPower(), StackedDDR3Power()
	if !(diePower(w, 2, 1) < diePower(d, 2, 1) && diePower(d, 2, 1) < diePower(h, 2, 1)) {
		t.Errorf("power ordering WideIO < DDR3 < HMC violated: %g %g %g",
			diePower(w, 2, 1), diePower(d, 2, 1), diePower(h, 2, 1))
	}
}

func TestHMCLoadsWithoutColumnPath(t *testing.T) {
	fp, err := floorplan.HMCDie(floorplan.DefaultHMC())
	if err != nil {
		t.Fatal(err)
	}
	m := HMCPower()
	loads, err := m.Loads(fp, []int{0, 4}, 1.0)
	if err != nil {
		t.Fatalf("Loads: %v", err)
	}
	want := diePower(m, 2, 1.0)
	if got := TotalPower(loads); math.Abs(got-want) > 1e-6 {
		t.Errorf("loads sum %g, want %g", got, want)
	}
}

func TestLogicModels(t *testing.T) {
	fp, err := floorplan.T2Die(floorplan.DefaultT2())
	if err != nil {
		t.Fatal(err)
	}
	m := T2Power(12000)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	loads, err := m.Loads(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalPower(loads); math.Abs(got-12000) > 1e-6 {
		t.Errorf("logic loads sum %g, want 12000", got)
	}
}

func TestLogicModelRedistributesMissingKinds(t *testing.T) {
	fp, err := floorplan.HMCLogicDie(floorplan.DefaultHMCLogic())
	if err != nil {
		t.Fatal(err)
	}
	// T2 model on HMC logic floorplan: no Cache blocks exist, their share
	// must flow to the present kinds, conserving total power.
	m := T2Power(5000)
	loads, err := m.Loads(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalPower(loads); math.Abs(got-5000) > 1e-6 {
		t.Errorf("loads sum %g, want 5000", got)
	}
}

func TestLogicModelValidate(t *testing.T) {
	bad := &LogicModel{Total: 100, CoreFrac: 0.5, CacheFrac: 0.1, UncoreFrac: 0.1}
	if err := bad.Validate(); err == nil {
		t.Error("fractions not summing to 1: want error")
	}
	neg := &LogicModel{Total: -5, CoreFrac: 1}
	if err := neg.Validate(); err == nil {
		t.Error("negative power: want error")
	}
}

// diePower returns the total power of one die with nActive active banks at
// the given I/O activity: standby + n·BankPower + V(io). The I/O component
// is bank-count independent (a die's I/O runs at the stated activity
// regardless of how many banks feed it). It is the closed form the
// distributed Loads must sum to.
func diePower(m *DRAMModel, nActive int, io float64) float64 {
	act, idle := m.interp(io)
	if nActive <= 0 {
		return m.Scale * idle
	}
	v := (act - idle) - m.BankPower*float64(m.RefBanks)
	if v < 0 {
		v = 0
	}
	return m.Scale * (idle + m.BankPower*float64(nActive) + v)
}
