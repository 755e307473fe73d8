// Package irdrop is the end-to-end DC IR-drop analysis engine: it couples
// an R-Mesh model with the DRAM and logic power models, solves the nodal
// system for a memory state, and reports the per-die and stack-wide maximum
// IR drops that every experiment in the paper is built on.
//
// An Analyzer reuses its conductance matrix and solver setup across memory
// states (only the right-hand side changes), which is what makes
// look-up-table generation and design-space sweeps tractable — the same
// property the paper exploits by replacing EPS extraction with the R-Mesh
// (§2.2). Result memoization belongs to the callers whose traffic repeats
// (the experiment runner, the server's result cache).
package irdrop

import (
	"context"
	"fmt"
	"sync/atomic"

	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/solve"
)

// Analyzer runs IR-drop analyses on one design.
type Analyzer struct {
	// Model is the assembled R-Mesh.
	Model *rmesh.Model
	// DRAMPower is the DRAM die power model.
	DRAMPower *powermap.DRAMModel
	// LogicPower is the host logic power model (nil off-chip, or when the
	// logic die should be analyzed unloaded).
	LogicPower *powermap.LogicModel
	// Opts selects and tunes the solver. The zero value selects the default
	// method with tolerances good for millivolt-accurate results. Set it
	// before the first Analyze call; it must not change afterwards.
	Opts solve.Options
	// Warm, when non-nil, seeds every solve with the most recent solution
	// published to the cell and publishes each completed solution back.
	// Warm-started solves converge to the same tolerance but are NOT
	// byte-identical to cold ones — leave Warm nil wherever bit-stable
	// outputs are promised (golden tables, the serve determinism
	// contract). Set it before the first Analyze call.
	Warm *WarmStart
	// SolveRecords, when non-nil, receives a flight record of every nodal
	// solve this analyzer runs — trajectory, coefficients, condition
	// estimate, termination — linked to the request trace when one is in
	// ctx. Recording never changes analysis results. Set it before the
	// first Analyze call.
	SolveRecords *obs.SolveBuffer

	obs *obs.Registry
}

// WarmStart is a shared warm-start cell: consecutive solves over
// near-identical systems (a value sweep over one topology) publish their
// solutions and seed from the latest one. The zero value is ready to use;
// a nil *WarmStart is inert. Safe for concurrent use — readers get some
// recent complete solution, never a torn one.
type WarmStart struct {
	v atomic.Pointer[[]float64]
}

// Seed returns the latest published solution if it matches dimension n,
// nil otherwise. The returned slice must be treated as read-only.
func (w *WarmStart) Seed(n int) []float64 {
	if w == nil {
		return nil
	}
	p := w.v.Load()
	if p == nil || len(*p) != n {
		return nil
	}
	return *p
}

// Publish stores x as the latest solution. The caller must not mutate x
// afterwards.
func (w *WarmStart) Publish(x []float64) {
	if w == nil || x == nil {
		return
	}
	w.v.Store(&x)
}

// Result is one IR-drop analysis outcome.
type Result struct {
	// State is the analyzed memory state.
	State memstate.State
	// IO is the per-die I/O activity used.
	IO float64
	// MaxIR is the maximum IR drop over all DRAM dies in volts — the
	// number the paper's tables report (in mV).
	MaxIR float64
	// PerDie is the per-DRAM-die maximum IR drop in volts.
	PerDie []float64
	// LogicIR is the logic die's maximum IR drop (0 when absent).
	LogicIR float64
	// TotalPower is the summed DRAM stack power in mW.
	TotalPower float64
	// ActiveDiePower is the power of one active die in mW (0 if none).
	ActiveDiePower float64
	// Stats reports the solve.
	Stats solve.CGStats
	// IR holds the full per-node IR-drop vector (volts) for map export.
	IR []float64
}

// New builds an Analyzer for a design.
func New(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel) (*Analyzer, error) {
	return NewObs(spec, dramPower, logicPower, nil)
}

// NewObs is New with instrumentation: the mesh build, solver setup, and
// every solve report into reg. A nil registry disables instrumentation;
// analysis results are identical either way.
func NewObs(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) (*Analyzer, error) {
	if err := validatePowers(spec, dramPower, logicPower); err != nil {
		return nil, err
	}
	m, err := rmesh.BuildObs(spec, reg)
	if err != nil {
		return nil, err
	}
	return newAnalyzer(m, dramPower, logicPower, reg), nil
}

// NewFromTopologyObs builds an Analyzer by restamping spec's values over
// an already-frozen mesh topology, skipping geometry and symbolic work.
// The restamped matrix is bit-identical to a full build's, so analysis
// results are too. spec must share t's topology key. Instrumentation is
// as in NewObs, except that the mesh reports under "rmesh.restamps"
// instead of "rmesh.builds".
func NewFromTopologyObs(t *rmesh.Topology, spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) (*Analyzer, error) {
	if err := validatePowers(spec, dramPower, logicPower); err != nil {
		return nil, err
	}
	m, err := t.NewModelObs(spec, reg)
	if err != nil {
		return nil, err
	}
	return newAnalyzer(m, dramPower, logicPower, reg), nil
}

func validatePowers(spec *pdn.Spec, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel) error {
	if err := dramPower.Validate(); err != nil {
		return err
	}
	if logicPower != nil {
		if err := logicPower.Validate(); err != nil {
			return err
		}
		if !spec.OnLogic {
			return fmt.Errorf("irdrop: logic power given for an off-chip design")
		}
	}
	return nil
}

func newAnalyzer(m *rmesh.Model, dramPower *powermap.DRAMModel, logicPower *powermap.LogicModel, reg *obs.Registry) *Analyzer {
	return &Analyzer{
		Model:      m,
		DRAMPower:  dramPower,
		LogicPower: logicPower,
		Opts:       solve.Options{CGOptions: solve.CGOptions{Tol: 1e-8, MaxIter: 60000}, Obs: reg},
		obs:        reg,
	}
}

// Spec returns the analyzed design.
func (a *Analyzer) Spec() *pdn.Spec { return a.Model.Spec }

// Analyze solves the design under the given memory state and I/O
// activity. It is AnalyzeCtx without cancellation. Analyze is safe for
// concurrent use: the conductance matrix is immutable after Build and
// each solve works on its own vectors. Every call solves; callers whose
// traffic repeats (state, io) points keep their own memo.
func (a *Analyzer) Analyze(state memstate.State, io float64) (*Result, error) {
	return a.AnalyzeCtx(context.Background(), state, io)
}

// AnalyzeCtx is Analyze with cooperative cancellation: ctx is polled at
// every solver iteration, so an abandoned request stops at the next
// iteration boundary. When ctx carries a request-trace span
// (obs.WithSpan), the analysis records "stamp" and "solve" child spans
// under it, the latter annotated with the solve's outcome
// (solve.CGStats.Attrs); with no span in ctx tracing is a no-op. A
// completed solve returns the same values for every ctx.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, state memstate.State, io float64) (*Result, error) {
	opts := a.Opts
	opts.Cancel = ctx.Err
	defer a.obs.Timer("irdrop.analyze_time").Start()()
	spec := a.Spec()
	if state.NumDies() > spec.NumDRAM {
		return nil, fmt.Errorf("irdrop: state has %d dies, design has %d", state.NumDies(), spec.NumDRAM)
	}
	parent := obs.SpanFrom(ctx)
	m := a.Model
	rhs := m.BaseRHS()
	res := &Result{State: state, IO: io, PerDie: make([]float64, spec.NumDRAM)}
	stamp := parent.Child("stamp")
	err := a.stampLoads(state, io, rhs, res)
	stamp.End()
	if err != nil {
		return nil, err
	}
	if opts.X0 == nil {
		opts.X0 = a.Warm.Seed(m.N())
	}
	solveSpan := parent.Child("solve")
	rec := a.SolveRecords.StartSolveRecord()
	rec.SetTrace(obs.TraceFrom(ctx).ID())
	opts.Rec = rec
	v, stats, err := m.Solve(rhs, opts)
	// The span and the flight record are both derived from the returned
	// stats, on the error path too: a failed or cancelled solve is
	// exactly the record /debug/solves exists to surface.
	solveSpan.Annotate(stats.Attrs()...)
	solveSpan.End()
	rec.Commit(stats.SolveOutcome)
	if err != nil {
		return nil, fmt.Errorf("irdrop: %s state %s: %w", spec.Name, state, err)
	}
	// Publish after success: v is not retained anywhere else (IR below is
	// a fresh slice), so later seeds read an immutable solution.
	a.Warm.Publish(v)
	res.Stats = stats
	res.IR = m.IRDrop(v)
	for d := 0; d < spec.NumDRAM; d++ {
		res.PerDie[d] = m.DieMaxIR(res.IR, d)
		if res.PerDie[d] > res.MaxIR {
			res.MaxIR = res.PerDie[d]
		}
	}
	if spec.OnLogic {
		res.LogicIR = m.DieMaxIR(res.IR, rmesh.DieLogic)
	}
	// Max over all analyzed states: order-independent, so deterministic.
	a.obs.Gauge("irdrop.max_ir_v").SetMax(res.MaxIR)
	return res, nil
}

// AnalyzeCounts is Analyze for a bare per-die count vector using the
// worst-case edge placement (paper §5.1).
func (a *Analyzer) AnalyzeCounts(counts []int, io float64) (*Result, error) {
	st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(a.Spec().DRAM.NumBanks))
	if err != nil {
		return nil, err
	}
	return a.Analyze(st, io)
}

// LoadedRHS assembles the folded right-hand side for a state without
// solving — ties plus all DRAM and logic loads. Used by the netlist
// exporter.
func (a *Analyzer) LoadedRHS(state memstate.State, io float64) ([]float64, error) {
	rhs := a.Model.BaseRHS()
	if err := a.stampLoads(state, io, rhs, &Result{}); err != nil {
		return nil, err
	}
	return rhs, nil
}

// stampLoads folds state's DRAM and logic loads into rhs, accumulating
// the power bookkeeping fields of res. Split out of AnalyzeCtx so the
// "stamp" trace span brackets exactly this work and is closed on the
// error paths too.
func (a *Analyzer) stampLoads(state memstate.State, io float64, rhs []float64, res *Result) error {
	spec := a.Spec()
	for d := 0; d < spec.NumDRAM; d++ {
		var banks []int
		if d < len(state.Dies) {
			banks = state.Dies[d]
		}
		loads, err := a.DRAMPower.Loads(spec.DRAM, banks, io)
		if err != nil {
			return err
		}
		p := powermap.TotalPower(loads)
		res.TotalPower += p
		if len(banks) > 0 {
			res.ActiveDiePower = p
		}
		if err := a.Model.AddDRAMLoads(rhs, d, loads); err != nil {
			return err
		}
	}
	if a.LogicPower != nil {
		loads, err := a.LogicPower.Loads(spec.Logic)
		if err != nil {
			return err
		}
		if err := a.Model.AddLogicLoads(rhs, loads); err != nil {
			return err
		}
	}
	return nil
}

// MaxIRmV returns the stack maximum IR drop in millivolts.
func (r *Result) MaxIRmV() float64 { return r.MaxIR * 1000 }

// LogicIRmV returns the logic die maximum IR drop in millivolts.
func (r *Result) LogicIRmV() float64 { return r.LogicIR * 1000 }
