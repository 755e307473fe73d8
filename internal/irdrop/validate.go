package irdrop

import (
	"fmt"
	"math"
	"time"

	"pdn3d/internal/memstate"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/solve"
)

// Validation compares the production R-Mesh against a golden reference, in
// the spirit of the paper's Figure 4 (R-Mesh vs. Cadence EPS): the
// reference uses a 2x-refined mesh — playing the role of EPS's
// extraction-level spatial resolution — solved to tight tolerance.
type Validation struct {
	// CoarseIR / FineIR are the max IR drops (V) of the two models.
	CoarseIR, FineIR float64
	// ErrPct is the relative max-IR error of the coarse model in percent.
	ErrPct float64
	// CoarseTime / FineTime are wall-clock solve+build times.
	CoarseTime, FineTime time.Duration
	// Speedup is FineTime / CoarseTime.
	Speedup float64
	// CoarseNodes / FineNodes are the model sizes.
	CoarseNodes, FineNodes int
}

// Validate runs the production model and the refined-mesh reference on the
// same design, state and activity, and reports accuracy and speedup.
func Validate(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel,
	state memstate.State, io float64) (*Validation, error) {

	run := func(s *pdn.Spec) (float64, time.Duration, int, error) {
		//pdnlint:ignore walltime the validation harness measures speedup on purpose; timing is reported beside accuracy, never folded into results
		start := time.Now()
		a, err := New(s, dramPower, logicPower)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := a.Analyze(state, io)
		if err != nil {
			return 0, 0, 0, err
		}
		return r.MaxIR, time.Since(start), a.Model.N(), nil
	}

	coarseIR, coarseT, coarseN, err := run(spec)
	if err != nil {
		return nil, fmt.Errorf("irdrop: coarse model: %w", err)
	}
	fine := spec.Clone()
	fine.Name = spec.Name + "/ref"
	fine.MeshPitch = spec.EffMeshPitch() / 2
	fineIR, fineT, fineN, err := run(fine)
	if err != nil {
		return nil, fmt.Errorf("irdrop: reference model: %w", err)
	}

	v := &Validation{
		CoarseIR: coarseIR, FineIR: fineIR,
		CoarseTime: coarseT, FineTime: fineT,
		CoarseNodes: coarseN, FineNodes: fineN,
	}
	if fineIR != 0 {
		v.ErrPct = math.Abs(coarseIR-fineIR) / fineIR * 100
	}
	if coarseT > 0 {
		v.Speedup = float64(fineT) / float64(coarseT)
	}
	return v, nil
}

// CrossCheckDense solves the design's nodal system with every solver
// method and compares each against an exact dense Cholesky
// factorization, returning the maximum absolute voltage disagreement in
// volts across all of them. It guards the solver methods themselves and is
// restricted to small meshes (the dense path is O(n³)).
func CrossCheckDense(spec *pdn.Spec, dramPower *powermap.DRAMModel,
	state memstate.State, io float64, maxNodes int) (float64, error) {

	a, err := New(spec, dramPower, nil)
	if err != nil {
		return 0, err
	}
	if a.Model.N() > maxNodes {
		return 0, fmt.Errorf("irdrop: mesh has %d nodes, dense cross-check capped at %d", a.Model.N(), maxNodes)
	}
	m := a.Model
	rhs := m.BaseRHS()
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(state.Dies) {
			banks = state.Dies[d]
		}
		loads, err := dramPower.Loads(spec.DRAM, banks, io)
		if err != nil {
			return 0, err
		}
		if err := m.AddDRAMLoads(rhs, d, loads); err != nil {
			return 0, err
		}
	}
	vExact, err := solve.DenseSolve(m.Matrix, rhs)
	if err != nil {
		return 0, err
	}
	var worst float64
	for _, method := range solve.Methods() {
		v, _, err := m.Solve(rhs, solve.Options{
			Method:    method,
			CGOptions: solve.CGOptions{Tol: 1e-12, MaxIter: 100000},
		})
		if err != nil {
			return 0, fmt.Errorf("irdrop: %s: %w", method, err)
		}
		for i := range v {
			if d := math.Abs(v[i] - vExact[i]); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// SingleDie2D derives the paper's "2D DDR3" validation design from a stack
// spec: one die, same floorplan and PDN options (§2.2 generates a 2D DDR3
// design with the same CAD method for the EPS comparison).
func SingleDie2D(spec *pdn.Spec) *pdn.Spec {
	s := spec.Clone()
	s.Name = spec.Name + "/2d"
	s.NumDRAM = 1
	s.OnLogic = false
	s.Logic = nil
	s.LogicTech = nil
	s.LogicUsage = nil
	s.DedicatedTSV = false
	s.Bonding = pdn.F2B
	s.WireBond = false
	return s
}
