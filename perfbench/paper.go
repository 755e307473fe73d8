package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pdn3d/internal/bench3d"
	"pdn3d/internal/exp"
	"pdn3d/internal/obs"
	"pdn3d/internal/report"
	"pdn3d/internal/solve"
)

// Golden-table fidelity: the paper workloads run where the committed
// goldens were rendered, so every golden table is checked on every run.
const (
	paperPitch    = 0.5
	paperRequests = 3000
	// setupRepeats is how many times a repetition constructs its runner
	// and loads the designs; it reports the median.
	setupRepeats = 101
)

// experiment is one exp.Runner call, rendered the way cmd/tables prints
// it.
type experiment struct {
	// id names the call in spans and metrics ("table2",
	// "table9.ddr3-off").
	id string
	// golden names the golden table the output must match ("" for none).
	golden string
	// timing marks outputs that carry measured wall-clock cells (Figure
	// 4's runtime and speed-up), which cannot repeat byte for byte.
	timing bool
	run    func(r *exp.Runner) (string, error)
}

func table(f func(r *exp.Runner) (*report.Table, error)) func(r *exp.Runner) (string, error) {
	return func(r *exp.Runner) (string, error) {
		t, err := f(r)
		if t == nil {
			return "", err
		}
		return t.String(), err
	}
}

func series(f func(r *exp.Runner) (*report.Series, error)) func(r *exp.Runner) (string, error) {
	return func(r *exp.Runner) (string, error) {
		s, err := f(r)
		if s == nil {
			return "", err
		}
		return s.String(), err
	}
}

// sweepsExperiments is every experiment except the co-optimization, in
// cmd/tables order.
func sweepsExperiments() []experiment {
	return []experiment{
		{id: "table1", run: table((*exp.Runner).Table1)},
		{id: "fig4", timing: true, run: table(func(r *exp.Runner) (*report.Table, error) { t, _, err := r.Figure4(); return t, err })},
		{id: "metal", run: table((*exp.Runner).MetalUsageStudy)},
		{id: "mounting", run: table((*exp.Runner).MountingStudy)},
		{id: "fig5", run: series((*exp.Runner).Figure5)},
		{id: "table2", golden: "table2", run: table((*exp.Runner).Table2)},
		{id: "table3", golden: "table3", run: table((*exp.Runner).Table3)},
		{id: "table4", golden: "table4", run: table((*exp.Runner).Table4)},
		{id: "table5", golden: "table5", run: table((*exp.Runner).Table5)},
		{id: "table6", golden: "table6", run: table(func(r *exp.Runner) (*report.Table, error) { t, _, err := r.Table6(); return t, err })},
		{id: "table7", run: table((*exp.Runner).Table7)},
		{id: "fig9", run: series(func(r *exp.Runner) (*report.Series, error) { return r.Figure9(nil) })},
		{id: "table8", golden: "table8", run: table((*exp.Runner).Table8)},
		{id: "crowding", run: table((*exp.Runner).CrowdingStudy)},
		{id: "failure", run: table((*exp.Runner).TSVFailureStudy)},
		{id: "policyall", run: table((*exp.Runner).PolicyStudyAll)},
		{id: "ac", run: table((*exp.Runner).ACStudy)},
	}
}

// cooptExperiments is Table 9 and the §6.1 regression study per
// co-optimized design, as `tables -only table9,regression -benchmarks
// ddr3-off,wideio` runs them.
func cooptExperiments() []experiment {
	var out []experiment
	for _, b := range cooptBenches {
		golden := ""
		if b == "ddr3-off" {
			golden = "table9" // the golden Table 9 is the ddr3-off one
		}
		out = append(out,
			experiment{id: "table9." + b, golden: golden, run: table(func(r *exp.Runner) (*report.Table, error) { return r.Table9(b) })},
			experiment{id: "regression." + b, run: table(func(r *exp.Runner) (*report.Table, error) { return r.RegressionStudy(b) })},
		)
	}
	return out
}

// paperRep runs one repetition of a paper workload on a fresh runner:
// set-up, then every experiment in order, each timed from outside, then
// the output checks.
func paperRep(exps []experiment, traced bool) (*repRecord, error) {
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		reg.SetSpanCap(1 << 16)
	}
	cfg := exp.Config{MeshPitch: paperPitch, Requests: paperRequests, Workers: runtime.NumCPU(), Obs: reg}

	var r *exp.Runner
	setups := make([]float64, setupRepeats)
	for i := range setups {
		t0 := time.Now()
		r = exp.NewRunner(cfg)
		if _, err := bench3d.All(); err != nil {
			return nil, fmt.Errorf("loading designs: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	rec := &repRecord{SetupS: median(setups), Digests: map[string]string{}}
	spans := make([]benchSpan, len(exps))
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	start := time.Now()
	for i, e := range exps {
		t0 := time.Now()
		outs[i], errs[i] = e.run(r)
		spans[i] = benchSpan{Name: "exp." + e.id, StartMS: msSince(start, t0), DurMS: msSince(t0, time.Now())}
	}
	rec.MakespanS = time.Since(start).Seconds()

	for i, e := range exps {
		rec.OpsMS = append(rec.OpsMS, spans[i].DurMS)
		rec.Attempted++
		if msg, err := checkExperiment(e, outs[i], errs[i]); err != nil {
			return nil, err
		} else if msg != "" {
			rec.Failures = append(rec.Failures, msg)
		}
		if !e.timing {
			sum := sha256.Sum256([]byte(outs[i]))
			rec.Digests[e.id] = hex.EncodeToString(sum[:8])
		}
	}

	rec.Env = baseEnv()
	rec.Env.Solver = solve.DefaultMethod
	rec.Env.MeshPitch = paperPitch
	rec.Env.Requests = paperRequests
	if traced {
		snap := reg.Snapshot()
		rec.Layers = paperLayers(snap, spans, outs, exps, rec.MakespanS, cfg.Workers)
		rec.trace = &traceFile{Env: rec.Env, Spans: spans, Registry: snap}
	}
	return rec, nil
}

// checkExperiment describes why an experiment's output is wrong ("" when
// it is right). The error return is for the benchmark's own faults.
func checkExperiment(e experiment, out string, runErr error) (string, error) {
	switch {
	case runErr != nil:
		return fmt.Sprintf("%s: %v", e.id, runErr), nil
	case strings.TrimSpace(out) == "":
		return fmt.Sprintf("%s: empty output", e.id), nil
	case hasErrCell(out):
		return fmt.Sprintf("%s: ERR cell", e.id), nil
	}
	if e.golden == "" {
		return "", nil
	}
	want, err := readGolden(e.golden)
	if err != nil {
		return "", err
	}
	if want == "" {
		return "", fmt.Errorf("golden table %s missing under %s", e.golden, goldenDir)
	}
	if bad := compareGolden(e.id, want, out); len(bad) > 0 {
		return fmt.Sprintf("%s: %d golden mismatches, first: %s", e.id, len(bad), bad[0]), nil
	}
	return "", nil
}

// sampleCounts reads the R-Mesh sample counts the co-optimization
// reports in its own output: Table 9's regression note and the
// regression study's first row.
var sampleCounts = regexp.MustCompile(`over (\d+) R-Mesh samples|R-Mesh samples solved\s+(\d+)`)

// paperLayers derives the exp, opt and engine per-layer metrics of one
// traced paper repetition.
func paperLayers(s obs.Snapshot, spans []benchSpan, outs []string, exps []experiment, makespan float64, workers int) map[string]float64 {
	m := map[string]float64{}
	for i, e := range exps {
		sec := spans[i].DurMS / 1000
		switch {
		case e.id == "fig9" || e.id == "policyall" || e.id == "table6" || e.id == "fig5":
			m["exp."+e.id+"_s"] += sec
		case strings.HasPrefix(e.id, "table9.") || strings.HasPrefix(e.id, "regression."):
			kind, bench, _ := strings.Cut(e.id, ".")
			m["exp."+kind+"_s."+bench] += sec
			for _, g := range sampleCounts.FindAllStringSubmatch(outs[i], -1) {
				n, _ := strconv.Atoi(g[1] + g[2])
				m["opt.samples"] += float64(n)
			}
		default:
			m["exp.other_s"] += sec
		}
	}
	c := func(name string) float64 { return float64(s.Counters[name]) }
	busy := s.Timers["exp.sweep.busy"].Seconds
	m["exp.sweep.busy_sum_s"] = busy
	m["exp.sweep.queue_wait_sum_s"] = s.Timers["exp.sweep.queue_wait"].Seconds
	m["exp.sweep.utilization"] = div(busy, float64(workers)*makespan)
	for _, cache := range []string{"analyzer", "topo", "lut"} {
		p := "exp." + cache + "_cache."
		m[p+"hit_ratio"] = ratio(c(p+"hits"), c(p+"misses"))
	}
	for _, sp := range s.Spans {
		if sp.Name == "opt/fit-models" {
			m["opt.fit_models.calls"]++
			m["opt.fit_models_s"] += sp.DurMS / 1000
		}
	}
	engineLayers(s, m)
	// Sweep time not spent in IR-drop analysis: memctrl simulation,
	// transient analysis and report rendering, which have no timers of
	// their own. Zero where the sweep pool is idle.
	m["exp.residual_sum_s"] = max(busy-m["irdrop.analyze_sum_s"], 0)
	return m
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }
