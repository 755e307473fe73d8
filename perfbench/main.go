// Command perfbench is the end-to-end benchmark of the pdn3d reproduction.
// It drives the public entry points from outside the program — exp.Runner
// for the paper's experiments and serve.New behind loopback HTTP for the
// analysis service — times every call into them, checks every output, and
// prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-sweeps --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//
// Each repetition runs in a fresh child process, so caches start cold and
// peak RSS is the repetition's own. With --trace 0 the run repeats the
// workload as often as fits --seconds and reports the end-to-end metrics;
// with --trace 1 it runs one untraced and one traced repetition and
// reports the per-layer metrics, writing the traced spans and registry
// snapshots under .bench_build/traces.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one invocation: every run must exit within 180 s.
const runBudget = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	child := flag.String("child", "", "internal: run one repetition in this process (plain or traced)")
	flag.Parse()

	if *child != "" {
		if err := runChild(*workload, *seed, *child == "traced"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// workload describes one benchmark workload: how a child process runs one
// repetition of it, and the share of a run's seconds one repetition is
// given, about its length on the reference host (2 CPUs).
type workload struct {
	name    string
	nominal time.Duration
	rep     func(seed int64, traced bool) (*repRecord, error)
}

var workloads = map[string]workload{
	"paper-sweeps": {"paper-sweeps", 12 * time.Second, func(_ int64, traced bool) (*repRecord, error) { return paperRep(sweepsExperiments(), traced) }},
	"paper-coopt":  {"paper-coopt", 15 * time.Second, func(_ int64, traced bool) (*repRecord, error) { return paperRep(cooptExperiments(), traced) }},
	"serve-mixed":  {"serve-mixed", 13 * time.Second, serveRep},
}

// repetitions is how many timed repetitions a run of seconds makes: as
// many nominal repetitions as fit, and at least two. The count depends
// only on the arguments, so the same seed and length run the same
// inputs.
func (w workload) repetitions(seconds int) int {
	return max(2, int(time.Duration(seconds)*time.Second/w.nominal))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkCheckout fails fast when the program's sources are not beside the
// benchmark: the benchmark measures this checkout, nothing else.
func checkCheckout() error {
	for _, p := range []string{"go.mod", "internal/exp", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not run from a pdn3d checkout root: %w", err)
		}
	}
	return nil
}

// repRecord is what one child repetition reports back to the parent, as
// one JSON line on its standard output.
type repRecord struct {
	// SetupS is the repetition's set-up time (median of its set-ups).
	SetupS float64 `json:"setup_s"`
	// MakespanS is the wall time of the measured phase.
	MakespanS float64 `json:"makespan_s"`
	// OpsMS is every measured operation's latency: one per Runner call or
	// HTTP request.
	OpsMS []float64 `json:"ops_ms"`
	// Attempted counts checked operations; Failures describes each failed
	// one (ERR cell, golden mismatch, non-200, wrong answer).
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	// Digests fingerprints each deterministic output so the parent can
	// check that every repetition produced the same bytes.
	Digests map[string]string `json:"digests,omitempty"`
	// AllocBytes and GCCycles are the child's runtime totals.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	// Layers holds the per-layer metrics (traced repetitions only).
	Layers map[string]float64 `json:"layers,omitempty"`
	// Env describes the configuration the repetition ran.
	Env envInfo `json:"env"`

	// peakRSSMiB is filled by the parent from the child's rusage.
	peakRSSMiB float64
	// trace is what a traced repetition writes out when it ends.
	trace *traceFile
}

// result is one run's outcome: the JSON object it prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	env      envInfo
	reps     int
	samples  int
	failures []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one invocation: the timed repetitions that fit
// seconds, or one untraced plus one traced repetition.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var reps []*repRecord
	if traced {
		for _, mode := range []string{"plain", "traced"} {
			rec, err := spawn(ctx, w.name, seed, mode)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rec)
		}
		return traceResult(reps[0], reps[1]), nil
	}
	for i := 0; i < w.repetitions(seconds); i++ {
		rec, err := spawn(ctx, w.name, seed, "plain")
		if err != nil {
			return nil, err
		}
		reps = append(reps, rec)
	}
	return timedResult(reps), nil
}

// spawn runs one repetition in a fresh child process and decodes its
// record. The child's peak RSS comes from its rusage.
func spawn(ctx context.Context, name string, seed int64, mode string) (*repRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "--child", mode, "--workload", name, "--seed", fmt.Sprint(seed))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition (%s): %w", name, mode, err)
	}
	var rec repRecord
	if err := json.Unmarshal(lastLine(out.Bytes()), &rec); err != nil {
		return nil, fmt.Errorf("%s repetition (%s): decoding record: %w", name, mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.peakRSSMiB = float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s repetition: setup %.4gs makespan %.4gs p50 %.4gms p99 %.4gms rss %.4gMiB failed %d/%d\n",
		name, mode, rec.SetupS, rec.MakespanS, percentile(rec.OpsMS, 0.5), percentile(rec.OpsMS, 0.99), rec.peakRSSMiB, len(rec.Failures), rec.Attempted)
	return &rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runChild runs one repetition in this process and prints its record.
func runChild(name string, seed int64, traced bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rec, err := w.rep(seed, traced)
	if err != nil {
		return err
	}
	rec.AllocBytes, rec.GCCycles = runtimeTotals()
	rec.Env.Seed = seed
	rec.Env.Workload = name
	if rec.trace != nil {
		rec.trace.Env = rec.Env
		if err := rec.trace.write(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// checkDigests counts outputs that differ between repetitions: every
// repetition runs the same inputs, so every digest must repeat.
func checkDigests(reps []*repRecord) []string {
	var bad []string
	for i, r := range reps[1:] {
		for id, d := range reps[0].Digests {
			if r.Digests[id] != d {
				bad = append(bad, fmt.Sprintf("%s: output of repetition %d differs from repetition 1", id, i+2))
			}
		}
	}
	return bad
}

// timedResult reduces the timed repetitions to the end-to-end metrics.
// Every repetition runs the same operations in the same order, so an
// operation's latency is its median over the repetitions, and the latency
// percentiles are taken over operations: one disturbed repetition cannot
// move them. The other metrics are medians over repetitions.
func timedResult(reps []*repRecord) *result {
	res := &result{env: reps[0].Env, reps: len(reps)}
	var setup, makespan, rss, rate []float64
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		makespan = append(makespan, r.MakespanS)
		rss = append(rss, r.peakRSSMiB)
		rate = append(rate, float64(len(r.OpsMS))/r.MakespanS)
		res.samples += len(r.OpsMS)
		res.Attempted += r.Attempted
		res.failures = append(res.failures, r.Failures...)
	}
	ops := make([]float64, len(reps[0].OpsMS))
	for i := range ops {
		var per []float64
		for _, r := range reps {
			if i < len(r.OpsMS) {
				per = append(per, r.OpsMS[i])
			}
		}
		ops[i] = median(per)
	}
	res.failures = append(res.failures, checkDigests(reps)...)
	res.finish()
	m := map[string]float64{
		"setup_s":        median(setup),
		"makespan_s":     median(makespan),
		"peak_rss_mib":   median(rss),
		"success_ratio":  1 - float64(res.Failed)/float64(res.Attempted),
		"latency_p50_ms": percentile(ops, 0.50),
		"latency_p99_ms": percentile(ops, 0.99),
		"throughput_rps": median(rate),
	}
	res.Metrics = withUnits(m, endToEnd)
	return res
}

// traceResult reports the per-layer metrics of the traced repetition plus
// the runtime totals of the untraced one and the tracing overhead.
func traceResult(plain, traced *repRecord) *result {
	res := &result{env: traced.Env, reps: 2, samples: len(traced.OpsMS)}
	for _, r := range []*repRecord{plain, traced} {
		res.Attempted += r.Attempted
		res.failures = append(res.failures, r.Failures...)
	}
	res.failures = append(res.failures, checkDigests([]*repRecord{plain, traced})...)
	res.finish()
	m := map[string]float64{}
	for k, v := range traced.Layers {
		m[k] = v
	}
	m["runtime.alloc_gib"] = float64(plain.AllocBytes) / (1 << 30)
	m["runtime.gc_cycles"] = float64(plain.GCCycles)
	m["trace.overhead_ratio"] = traced.MakespanS / plain.MakespanS
	res.Metrics = withUnits(m, perLayer)
	return res
}

func (res *result) finish() {
	res.Failed = len(res.failures)
	if res.Failed > res.Attempted {
		res.Attempted = res.Failed
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
		res.failures = append(res.failures, "no operation was checked")
	}
	res.Correct = res.Failed == 0
}

// withUnits attaches each declared metric's unit. A declared metric the
// run did not produce reads 0: that layer did no work on this workload.
// Producing an undeclared metric is a bug in the harness.
func withUnits(m map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			panic("perfbench: undeclared metric " + name)
		}
	}
	return out
}

// printResult writes the human summary and then, as the last line, the
// JSON result object.
func printResult(f *os.File, res *result) {
	w := bufio.NewWriter(f)
	env, _ := json.Marshal(res.env)
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "repetitions %d, operations sampled %d, attempted %d, failed %d, error_ratio %.4g\n",
		res.reps, res.samples, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for i, f := range res.failures {
		if i == 20 {
			fmt.Fprintf(w, "FAIL ... %d more\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", b)
	w.Flush()
}

// runAll runs every workload once, untraced, and prints every end-to-end
// metric by name with its unit.
func runAll(seed int64, seconds int) error {
	all := map[string]*result{}
	var errs []error
	for _, name := range workloadNames() {
		res, err := runWorkload(workloads[name], seed, seconds, false)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		all[name] = res
		fmt.Printf("== %s: %d repetitions, %d operations, error_ratio %.4g (%d of %d failed)\n",
			name, res.reps, res.samples, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
		for _, d := range endToEnd {
			fmt.Printf("   %-16s %12.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
		for _, f := range res.failures {
			fmt.Printf("   FAIL %s\n", f)
		}
	}
	b, _ := json.Marshal(all)
	fmt.Printf("%s\n", b)
	return errors.Join(errs...)
}

// envInfo is the configuration every result carries, so runs from
// different hosts or settings are never compared silently.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Solver     string  `json:"solver"`
	MeshPitch  float64 `json:"mesh_pitch_mm"`
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients,omitempty"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
}

func baseEnv() envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit(),
		Source:     sourceDigest(),
	}
}
