// Package exp regenerates every table and figure of the paper's
// evaluation: one function per experiment, returning report tables/series
// that cmd/tables prints and bench_test.go drives.
//
// The experiment index (paper table/figure -> function) lives in DESIGN.md;
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/irdrop"
	"pdn3d/internal/lut"
	"pdn3d/internal/memctrl"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/opt"
	"pdn3d/internal/par"
	"pdn3d/internal/pdn"
	"pdn3d/internal/powermap"
	"pdn3d/internal/rmesh"
	"pdn3d/internal/speckey"
)

// Config tunes experiment fidelity against runtime.
type Config struct {
	// MeshPitch overrides every design's R-Mesh pitch (mm). Zero keeps
	// the specs' defaults (0.2 mm). Benchmarks and smoke tests use a
	// coarser pitch for speed.
	MeshPitch float64
	// Requests overrides the controller workload length (0 = 10000).
	Requests int
	// Workers bounds the sweep worker pool (and each solver's kernel
	// pool). <= 0 selects GOMAXPROCS. Outputs are identical for every
	// value.
	Workers int
	// Solver selects the nodal solver method ("" = solve.DefaultMethod).
	Solver string
	// Obs, when non-nil, receives run metrics and a span per experiment:
	// mesh/solver instrumentation from the layers below, sweep pool
	// metrics under "exp.sweep.*", and analyzer/LUT cache hit rates.
	// Results are identical with or without it.
	Obs *obs.Registry
}

// Runner executes experiments, memoizing the work that experiments
// sharing a design repeat. It is safe for concurrent use: each memo is a
// par.Group, so concurrent misses on one key are deduplicated and every
// entry is built exactly once. The memos, all unbounded for the life of
// the Runner (DESIGN.md "Cache structure" lists what each one saves):
//
//   - topos: frozen mesh topologies by speckey.Topology. The first design
//     of a shape keeps the model of its full build; a value-only variant
//     (the metal-usage study) restamps conductances over the frozen shape.
//   - analyzers: one analyzer (matrix plus solver setup) per design.
//   - results: analysis results by (design, state, io), reported under
//     "irdrop.result_cache.*". Look-up-table builds go through it too.
//   - luts: look-up tables per design.
//   - optimizers: one co-optimizer per benchmark, models fitted, shared
//     by Table 9 and the regression study.
type Runner struct {
	Cfg Config

	topos      par.Group[*rmesh.Topology]
	analyzers  par.Group[*irdrop.Analyzer]
	results    par.Group[*irdrop.Result]
	luts       par.Group[*lut.Table]
	optimizers par.Group[*opt.Optimizer]
	sweeps     *obs.SweepMetrics
}

// NewRunner returns a Runner with the given fidelity configuration.
func NewRunner(cfg Config) *Runner {
	r := &Runner{Cfg: cfg}
	reg := cfg.Obs
	r.sweeps = reg.SweepMetrics("exp.sweep")
	r.topos.Hits = reg.Counter("exp.topo_cache.hits")
	r.topos.Misses = reg.Counter("exp.topo_cache.misses")
	r.analyzers.Hits = reg.Counter("exp.analyzer_cache.hits")
	r.analyzers.Misses = reg.Counter("exp.analyzer_cache.misses")
	r.results.Hits = reg.Counter("irdrop.result_cache.hits")
	r.results.Misses = reg.Counter("irdrop.result_cache.misses")
	r.luts.Hits = reg.Counter("exp.lut_cache.hits")
	r.luts.Misses = reg.Counter("exp.lut_cache.misses")
	r.optimizers.Hits = reg.Counter("exp.optimizer_cache.hits")
	r.optimizers.Misses = reg.Counter("exp.optimizer_cache.misses")
	return r
}

// span opens one experiment-level trace span (no-op without a registry).
func (r *Runner) span(name string, attrs ...obs.Attr) func() {
	return r.Cfg.Obs.Span(name, attrs...)
}

// sweep fans fn over n independent design points on the runner's worker
// pool, collecting each point's result into a slice. It stops early on the
// first error and returns the lowest-indexed one.
func sweep[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := par.SweepWith(r.Cfg.Workers, n, r.sweeps, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepCells fans fn over n independent table cells like sweep, but never
// aborts: every cell runs to completion, a failed cell keeps its zero
// value, and the per-cell errors come back positionally so callers can
// render failed cells as "ERR" instead of dropping the whole table. The
// third return aggregates the failures (nil when every cell succeeded).
func sweepCells[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, []error, error) {
	out := make([]T, n)
	errs := make([]error, n)
	// fn errors land in errs, not the sweep, so no cell cancels the rest.
	_ = par.SweepWith(r.Cfg.Workers, n, r.sweeps, func(i int) error {
		v, err := fn(i)
		if err != nil {
			errs[i] = err
			return nil
		}
		out[i] = v
		return nil
	})
	var first error
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	if first != nil {
		return out, errs, fmt.Errorf("exp: %d of %d cells failed, first: %w", failed, n, first)
	}
	return out, errs, nil
}

// requests returns the workload length.
func (r *Runner) requests() int {
	if r.Cfg.Requests > 0 {
		return r.Cfg.Requests
	}
	return 10000
}

// prepare applies the runner's fidelity overrides to a cloned spec.
func (r *Runner) prepare(spec *pdn.Spec) *pdn.Spec {
	s := spec.Clone()
	if r.Cfg.MeshPitch > 0 {
		s.MeshPitch = r.Cfg.MeshPitch
	}
	return s
}

// specKey fingerprints a design for the runner's memos. The
// implementation lives in internal/speckey so the serving layer's result
// cache shares the exact same key contract.
func specKey(s *pdn.Spec, withLogic bool) string {
	return speckey.Spec(s, withLogic)
}

// analyzer returns the memoized analyzer for the prepared spec, building
// it exactly once even under concurrent misses. The first design of a
// mesh shape keeps the model of its full build and publishes the frozen
// topology; later designs of that shape restamp their conductances over
// it — bit-identical to a full build, minus the geometry and symbolic
// work.
func (r *Runner) analyzer(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (*irdrop.Analyzer, error) {
	a, _, err := r.analyzers.Do(specKey(spec, logic != nil), func() (*irdrop.Analyzer, error) {
		var a *irdrop.Analyzer
		t, how, err := r.topos.Do(speckey.Topology(spec), func() (*rmesh.Topology, error) {
			built, err := irdrop.NewObs(spec, dram, logic, r.Cfg.Obs)
			if err != nil {
				return nil, err
			}
			a = built
			return built.Model.Topology(), nil
		})
		if err != nil {
			return nil, err
		}
		if how != par.Ran {
			if a, err = irdrop.NewFromTopologyObs(t, spec, dram, logic, r.Cfg.Obs); err != nil {
				return nil, err
			}
		}
		a.Opts.Method = r.Cfg.Solver
		a.Opts.Workers = r.Cfg.Workers
		return a, nil
	})
	return a, err
}

// result returns the memoized analysis of state at io on a, solving it
// exactly once per (design, state, io) even under concurrent misses.
func (r *Runner) result(a *irdrop.Analyzer, state memstate.State, io float64) (*irdrop.Result, error) {
	var kb speckey.Builder
	kb.Str(specKey(a.Spec(), a.LogicPower != nil))
	kb.Str(state.Key())
	kb.Float(io)
	res, _, err := r.results.Do(kb.String(), func() (*irdrop.Result, error) {
		return a.Analyze(state, io)
	})
	return res, err
}

// countsResult is result for a bare per-die count vector at the paper's
// worst-case edge placement (§5.1).
func (r *Runner) countsResult(a *irdrop.Analyzer, counts []int, io float64) (*irdrop.Result, error) {
	st, err := memstate.FromCounts(counts, memstate.WorstCaseEdge(a.Spec().DRAM.NumBanks))
	if err != nil {
		return nil, err
	}
	return r.result(a, st, io)
}

// analyze returns the memoized analysis of state at io on the prepared
// spec's analyzer.
func (r *Runner) analyze(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel, state memstate.State, io float64) (*irdrop.Result, error) {
	a, err := r.analyzer(spec, dram, logic)
	if err != nil {
		return nil, err
	}
	return r.result(a, state, io)
}

// analyzeCounts is analyze for a count state at the worst-case edge
// placement.
func (r *Runner) analyzeCounts(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel, counts []int, io float64) (*irdrop.Result, error) {
	a, err := r.analyzer(spec, dram, logic)
	if err != nil {
		return nil, err
	}
	return r.countsResult(a, counts, io)
}

// lutFor returns the memoized IR-drop look-up table for the prepared
// spec, building it exactly once even under concurrent misses. Its grid
// points go through the result memo.
func (r *Runner) lutFor(spec *pdn.Spec, dram *powermap.DRAMModel, logic *powermap.LogicModel) (*lut.Table, error) {
	t, _, err := r.luts.Do(specKey(spec, logic != nil), func() (*lut.Table, error) {
		a, err := r.analyzer(spec, dram, logic)
		if err != nil {
			return nil, err
		}
		analyze := func(counts []int, io float64) (*irdrop.Result, error) { return r.countsResult(a, counts, io) }
		return lut.BuildWith(analyze, spec.NumDRAM, memstate.MaxInterleavedBanks, lut.DefaultIOLevels(), r.Cfg.Workers)
	})
	return t, err
}

// policyRun simulates one (policy, scheduler) pair on b's stack and
// channels over a fresh workload. It is the runner's only controller
// entry, so memctrl.simulations and memctrl.simulate_time account for
// every simulation.
func (r *Runner) policyRun(b *bench3d.Benchmark, table *lut.Table,
	policy memctrl.IRPolicy, sched memctrl.Scheduler, irLimitV float64) (*memctrl.Result, error) {

	cfg := memctrl.DefaultConfig(policy, sched, table, irLimitV)
	cfg.Dies = b.Spec.NumDRAM
	cfg.BanksPerDie = b.Spec.DRAM.NumBanks
	cfg.Channels = b.Channels
	cfg.ChannelOf = b.ChannelOf
	wl := memctrl.DefaultWorkload(cfg.Dies, cfg.BanksPerDie)
	wl.Requests = r.requests()
	reqs, err := memctrl.Generate(wl)
	if err != nil {
		return nil, err
	}
	r.Cfg.Obs.Counter("memctrl.simulations").Add(1)
	defer r.Cfg.Obs.Timer("memctrl.simulate_time").Start()()
	return memctrl.Simulate(cfg, reqs)
}
