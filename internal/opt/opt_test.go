package opt

import (
	"math"
	"sync"
	"testing"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/regress"
)

var (
	fitOnce sync.Once
	fitOpt  *Optimizer
	fitErr  error
)

// fastOptimizer fits models once for the whole package (coarse mesh,
// minimal sampling) — FitModels is the expensive step.
func fastOptimizer(t testing.TB) *Optimizer {
	t.Helper()
	fitOnce.Do(func() {
		b, err := bench3d.StackedDDR3Off()
		if err != nil {
			fitErr = err
			return
		}
		fitOpt = &Optimizer{
			Bench:             b,
			MeshPitch:         0.6,
			ContinuousSamples: 2,
			GridSteps:         5,
		}
		fitErr = fitOpt.FitModels()
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitOpt
}

func TestCandidateApply(t *testing.T) {
	b, err := bench3d.StackedDDR3On()
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{M2: 0.15, M3: 0.3, TC: 100, TL: pdn.CenterTSV,
		TD: true, BD: pdn.F2F, RL: true, WB: true}
	s := c.Apply(b.Spec)
	if s.Usage["M2"] != 0.15 || s.Usage["M3"] != 0.3 || s.TSVCount != 100 {
		t.Error("continuous fields not applied")
	}
	if s.TSVStyle != pdn.CenterTSV || s.Bonding != pdn.F2F || !s.DedicatedTSV ||
		s.RDL != pdn.RDLInterface || !s.WireBond {
		t.Error("categorical fields not applied")
	}
	if b.Spec.Usage["M2"] == 0.15 {
		t.Error("Apply must not mutate the baseline")
	}
	// Off-chip: TD is dropped.
	off, _ := bench3d.StackedDDR3Off()
	if c.Apply(off.Spec).DedicatedTSV {
		t.Error("dedicated TSVs must be dropped off-chip")
	}
}

func TestCombosRespectConstraints(t *testing.T) {
	w, err := bench3d.WideIO()
	if err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Bench: w}
	for _, cb := range o.combos() {
		if cb.TL == pdn.EdgeTSV && !cb.RL {
			t.Errorf("Wide I/O edge TSVs without RDL: %+v", cb)
		}
		if cb.TL == pdn.DistributedTSV {
			t.Errorf("Wide I/O must not offer distributed TSVs: %+v", cb)
		}
	}
	off, _ := bench3d.StackedDDR3Off()
	oOff := &Optimizer{Bench: off}
	for _, cb := range oOff.combos() {
		if cb.TD {
			t.Errorf("off-chip combo with dedicated TSVs: %+v", cb)
		}
	}
}

func TestTCSamplesGeometric(t *testing.T) {
	s := tcSamples([2]int{15, 480}, 4)
	if s[0] != 15 || s[len(s)-1] != 480 {
		t.Errorf("endpoints = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("not increasing: %v", s)
		}
	}
	if got := tcSamples([2]int{160, 160}, 4); len(got) != 1 || got[0] != 160 {
		t.Errorf("fixed range = %v, want [160]", got)
	}
}

func TestBestRequiresFit(t *testing.T) {
	b, _ := bench3d.StackedDDR3Off()
	o := &Optimizer{Bench: b}
	if _, err := o.Best(0.3); err == nil {
		t.Error("Best before FitModels: want error")
	}
}

func TestBestAlphaRange(t *testing.T) {
	o := fastOptimizer(t)
	if _, err := o.Best(-0.1); err == nil {
		t.Error("alpha < 0: want error")
	}
	if _, err := o.Best(1.1); err == nil {
		t.Error("alpha > 1: want error")
	}
}

func TestAlphaTradeoff(t *testing.T) {
	o := fastOptimizer(t)
	cheap, err := o.Best(0)
	if err != nil {
		t.Fatal(err)
	}
	quality, err := o.Best(1)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Cost > quality.Cost {
		t.Errorf("alpha=0 cost %.3f should not exceed alpha=1 cost %.3f", cheap.Cost, quality.Cost)
	}
	if quality.MeasIRmV > cheap.MeasIRmV {
		t.Errorf("alpha=1 IR %.2f should not exceed alpha=0 IR %.2f", quality.MeasIRmV, cheap.MeasIRmV)
	}
	// The alpha=0 candidate should be the all-minimum config (paper's
	// Table 9 alpha=0 rows).
	if cheap.Cand.TL != pdn.CenterTSV || cheap.Cand.WB || cheap.Cand.RL {
		t.Errorf("alpha=0 picked non-minimal options: %s", cheap.Cand)
	}
}

func TestModelPredictionsTrackMeasurements(t *testing.T) {
	o := fastOptimizer(t)
	for _, alpha := range []float64{0, 0.5, 1} {
		res, err := o.Best(alpha)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.PredIRmV-res.MeasIRmV) / res.MeasIRmV
		if relErr > 0.30 {
			t.Errorf("alpha=%g: model %.2f vs R-Mesh %.2f mV (%.0f%% off)",
				alpha, res.PredIRmV, res.MeasIRmV, relErr*100)
		}
	}
}

func TestFitQualityReported(t *testing.T) {
	o := fastOptimizer(t)
	if o.FitRMSE <= 0 || o.FitRMSE > 0.5 {
		t.Errorf("FitRMSE = %g out of plausible range", o.FitRMSE)
	}
	if o.FitR2 < 0.8 || o.FitR2 > 1 {
		t.Errorf("FitR2 = %g out of plausible range", o.FitR2)
	}
	if o.FitSolves == 0 {
		t.Error("no solves recorded")
	}
	if o.GridSize() <= 0 {
		t.Error("grid size must be positive")
	}
}

func TestBaseline(t *testing.T) {
	o := fastOptimizer(t)
	res, err := o.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cand.TL != pdn.EdgeTSV || res.Cand.TC != 33 {
		t.Errorf("baseline candidate = %s", res.Cand)
	}
	if math.Abs(res.Cost-0.35) > 0.03 {
		t.Errorf("baseline cost %.3f, want ~0.35 (Table 9)", res.Cost)
	}
	if res.MeasIRmV < 20 || res.MeasIRmV > 45 {
		t.Errorf("baseline worst-case IR %.2f mV outside plausible band", res.MeasIRmV)
	}
}

// TestRestampSamplesMatchFullBuilds pins FitModels' sampling contract on
// one combo per paper benchmark: each TSV count pays one full build and
// restamps it for the other M2×M3 samples, every sample's worst-case IR
// equals a from-scratch irdrop.NewObs build bit for bit, and so the
// combo's fitted coefficients, RMSE and R² equal a fit over full builds
// bit for bit too.
func TestRestampSamplesMatchFullBuilds(t *testing.T) {
	bs, err := bench3d.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		t.Run(b.Name, func(t *testing.T) {
			o := &Optimizer{Bench: b, MeshPitch: 0.8}
			if err := o.FitModels(); err != nil {
				t.Fatal(err)
			}
			sp := b.Space
			n := o.samplesPerAxis()
			m2s := axisSamples(sp.M2Range[0], sp.M2Range[1], n)
			m3s := axisSamples(sp.M3Range[0], sp.M3Range[1], n)
			tcs := tcSamples(sp.TSVRange, n+1)
			combos := o.combos()
			cb := combos[len(combos)-1] // RDL and wire bonding on: the richest mesh

			reg := obs.NewRegistry()
			o.Obs = reg
			irs, solves, err := o.sampleCombo(cb, m2s, m3s, tcs)
			o.Obs = nil
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			if c["rmesh.builds"] != int64(len(tcs)) || c["rmesh.restamps"] != int64(len(tcs)*(len(m2s)*len(m3s)-1)) {
				t.Errorf("%d builds + %d restamps for %d TSV counts of %d M2×M3 samples, want one build per TSV count",
					c["rmesh.builds"], c["rmesh.restamps"], len(tcs), len(m2s)*len(m3s))
			}

			var samples []regress.Sample
			wantSolves := 0
			for _, m2 := range m2s {
				for _, m3 := range m3s {
					for _, tc := range tcs {
						cand := cb.candidate(m2, m3, tc)
						ir, n, err := o.measure(cand)
						if err != nil {
							t.Fatal(err)
						}
						if got := irs[len(samples)]; math.Float64bits(got) != math.Float64bits(ir) {
							t.Errorf("%s: restamped max IR %v mV, full build %v mV", cand, got, ir)
						}
						wantSolves += n
						samples = append(samples, regress.Sample{X: features(m2, m3, tc), Y: math.Log(ir)})
					}
				}
			}
			if solves != wantSolves {
				t.Errorf("sampling spent %d solves, full builds %d", solves, wantSolves)
			}
			want, err := regress.LeastSquares(samples)
			if err != nil {
				t.Fatal(err)
			}
			got := o.fits[cb.key()]
			same := len(got.W) == len(want.W) &&
				math.Float64bits(got.RMSE) == math.Float64bits(want.RMSE) &&
				math.Float64bits(got.R2) == math.Float64bits(want.R2)
			for i := 0; same && i < len(got.W); i++ {
				same = math.Float64bits(got.W[i]) == math.Float64bits(want.W[i])
			}
			if !same {
				t.Errorf("fit over restamped samples %+v, over full builds %+v", got, want)
			}
		})
	}
}
