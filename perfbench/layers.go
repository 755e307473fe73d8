package main

import (
	"strings"

	"pdn3d/internal/obs"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's metric catalogue; BENCHMARK.json declares the same names
// (harness_test.go keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"makespan_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
}

// servePhases are the serving path's trace phases (DESIGN.md §5e).
var servePhases = []string{"queue", "cache", "flight", "mesh", "stamp", "solve", "serialize"}

// cooptBenches are the designs paper-coopt co-optimizes: one off-chip,
// one on-logic.
var cooptBenches = []string{"ddr3-off", "wideio"}

// perLayer are the metrics of single layers, reported by traced runs.
// "_sum_s" timers are summed over concurrent goroutines: neither wall
// time nor CPU time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, id := range []string{"fig9", "policyall", "table6", "fig5", "other"} {
		add("exp."+id+"_s", "s", "lower")
	}
	for _, b := range cooptBenches {
		add("exp.table9_s."+b, "s", "lower")
		add("exp.regression_s."+b, "s", "lower")
	}
	add("exp.sweep.busy_sum_s", "s", "lower")
	add("exp.sweep.queue_wait_sum_s", "s", "lower")
	add("exp.sweep.utilization", "ratio", "higher")
	for _, c := range []string{"analyzer", "topo", "lut"} {
		add("exp."+c+"_cache.hit_ratio", "ratio", "higher")
	}
	add("exp.residual_sum_s", "s", "lower")

	add("opt.fit_models.calls", "count", "lower")
	add("opt.fit_models_s", "s", "lower")
	add("opt.samples", "count", "lower")

	add("irdrop.analyses", "count", "lower")
	add("irdrop.result_cache.hit_ratio", "ratio", "higher")
	add("irdrop.analyze_sum_s", "s", "lower")

	add("rmesh.builds", "count", "lower")
	add("rmesh.restamps", "count", "lower")
	add("rmesh.restamp_share", "ratio", "higher")
	for _, t := range []string{"build", "reorder", "stamp", "restamp"} {
		add("rmesh."+t+"_sum_s", "s", "lower")
	}
	add("rmesh.nodes_total", "count", "lower")

	add("solve.solves", "count", "lower")
	add("solve.setups", "count", "lower")
	add("solve.solves_per_setup", "ratio", "higher")
	add("solve.iterations_total", "count", "lower")
	add("solve.iters_per_solve", "count", "lower")
	for _, t := range []string{"solve", "setup", "precond_apply"} {
		add("solve."+t+"_sum_s", "s", "lower")
	}
	add("solve.errors", "count", "lower")
	add("solve.ic_fallbacks", "count", "lower")
	add("solve.warm_starts", "count", "higher")

	for _, p := range servePhases {
		add("serve.phase."+p+".p50_ms", "ms", "lower")
		add("serve.phase."+p+".tail_ms", "ms", "lower")
		add("serve.phase."+p+".n", "count", "higher")
	}
	add("serve.requests", "count", "higher")
	add("serve.cache.hit_ratio", "ratio", "higher")
	add("serve.flight.shared_ratio", "ratio", "higher")
	add("serve.topo_cache.hit_ratio", "ratio", "higher")
	add("serve.admission.queue_wait_sum_s", "s", "lower")
	add("serve.admission.rejected", "count", "lower")
	for _, c := range []string{"hit", "solve", "cold"} {
		add("serve.class_share."+c, "ratio", "higher")
	}

	add("runtime.alloc_gib", "GiB", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	return defs
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers derives the irdrop, rmesh and solve metrics from a
// registry snapshot (or the difference of two).
func engineLayers(s obs.Snapshot, m map[string]float64) {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	t := func(name string) obs.TimerSnapshot { return s.Timers[name] }

	m["irdrop.analyses"] = float64(t("irdrop.analyze_time").Count)
	m["irdrop.result_cache.hit_ratio"] = ratio(c("irdrop.result_cache.hits"), c("irdrop.result_cache.misses"))
	m["irdrop.analyze_sum_s"] = t("irdrop.analyze_time").Seconds

	m["rmesh.builds"] = c("rmesh.builds")
	m["rmesh.restamps"] = c("rmesh.restamps")
	m["rmesh.restamp_share"] = ratio(c("rmesh.restamps"), c("rmesh.builds"))
	m["rmesh.build_sum_s"] = t("rmesh.build_time").Seconds
	m["rmesh.reorder_sum_s"] = t("rmesh.reorder_time").Seconds
	m["rmesh.stamp_sum_s"] = t("rmesh.stamp_time").Seconds
	m["rmesh.restamp_sum_s"] = t("rmesh.restamp_time").Seconds
	m["rmesh.nodes_total"] = c("rmesh.nodes_total")

	// The solve layer reports per method ("solve.<method>.<metric>");
	// the benchmark sums over methods.
	var solves, setups, iters, warm, errs, solveS, setupS, applyS float64
	for name, v := range s.Counters {
		switch solveMetric(name) {
		case "solves":
			solves += float64(v)
		case "iterations_total":
			iters += float64(v)
		case "warm_starts":
			warm += float64(v)
		case "errors":
			errs += float64(v)
		}
	}
	for name, v := range s.Timers {
		switch solveMetric(name) {
		case "setup_time":
			setups += float64(v.Count)
			setupS += v.Seconds
		case "precond_apply":
			applyS += v.Seconds
		case "solve_time":
			solveS += v.Seconds
		}
	}
	m["solve.solves"] = solves
	m["solve.setups"] = setups
	m["solve.solves_per_setup"] = div(solves, setups)
	m["solve.iterations_total"] = iters
	m["solve.iters_per_solve"] = div(iters, solves)
	m["solve.solve_sum_s"] = solveS
	m["solve.setup_sum_s"] = setupS
	m["solve.precond_apply_sum_s"] = applyS
	m["solve.errors"] = errs
	m["solve.ic_fallbacks"] = c("solve.ic_fallbacks")
	m["solve.warm_starts"] = warm
}

// solveMetric returns the metric part of a per-method solve metric name
// ("solve.cg-ic0.solves" -> "solves"), or "" for any other name.
func solveMetric(name string) string {
	parts := strings.Split(name, ".")
	if len(parts) != 3 || parts[0] != "solve" {
		return ""
	}
	return parts[2]
}

// snapshotDelta subtracts before from after, counter by counter and
// timer by timer, so a metric covers only the phase between the two.
func snapshotDelta(after, before obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerSnapshot{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, v := range after.Timers {
		b := before.Timers[k]
		d.Timers[k] = obs.TimerSnapshot{Count: v.Count - b.Count, Seconds: v.Seconds - b.Seconds}
	}
	return d
}
