package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/obs"
)

func TestStreamIsSeeded(t *testing.T) {
	a, err := genStream(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStream(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	c, err := genStream(8, 300)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Reqs, c.Reqs) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestStreamClasses(t *testing.T) {
	st, err := genStream(3, streamLen)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{} // body -> first position (warm-up first)
	for i, r := range st.Warmup {
		seen[string(r.Body)] = i - len(st.Warmup)
	}
	count := map[string]int{}
	for i, r := range st.Reqs {
		count[r.Class]++
		first, repeated := seen[string(r.Body)]
		switch {
		case r.Class == "hit" && !repeated:
			t.Fatalf("request %d: hit %s repeats nothing", i, r.Body)
		case r.Class == "hit" && first >= 0 && i-first < repeatDistance:
			t.Fatalf("request %d: hit repeats request %d, closer than %d", i, first, repeatDistance)
		case r.Class != "hit" && repeated:
			t.Fatalf("request %d: %s request %s was sent before", i, r.Class, r.Body)
		}
		if !repeated {
			seen[string(r.Body)] = i
		}
		if err := r.Query.Validate(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := map[string]int{"cold": 80, "hit": 700, "solve": 220}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("class counts %v, want %v", count, want)
	}
	if len(st.Checks) != 3*directChecks {
		t.Fatalf("%d direct checks, want %d", len(st.Checks), 3*directChecks)
	}
}

// The unseen designs outnumber the server's default design cache, and
// every one of them is a valid design the engine can analyze.
func TestDesignPoolAnalyzes(t *testing.T) {
	pool, err := designPool()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range serveBenches {
		n += len(pool[b])
	}
	if n <= 64 {
		t.Fatalf("pool holds %d designs, want more than the default design cache (64)", n)
	}
	t.Logf("pool holds %d unseen designs", n)
	if testing.Short() {
		t.Skip("building every pooled design")
	}
	for _, b := range serveBenches {
		for _, d := range pool[b] {
			r, err := d.query("1-0-2-1", 0.5).Resolve()
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			a, err := irdrop.New(r.Spec, r.Bench.DRAMPower, r.Logic)
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			if _, err := a.Analyze(r.State, 0.5); err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	vs := make([]float64, 3600)
	for i := range vs {
		vs[len(vs)-1-i] = float64(i + 1) // 3600 down to 1
	}
	if got := percentile(vs, 0.99); got != 3564 {
		t.Errorf("p99 of 1..3600 = %v, want 3564", got)
	}
	if got := percentile(vs, 0.5); got != 1800 {
		t.Errorf("p50 of 1..3600 = %v, want 1800", got)
	}
	if got := tail(vs); got != 3590 {
		t.Errorf("tail of 1..3600 = %v, want 3590 (ten samples beyond)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGoldenComparator(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", goldenDir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := string(b)
	if !strings.Contains(golden, "30.36") {
		t.Fatal("table2 golden no longer holds the 30.36 cell this test perturbs")
	}
	cases := []struct {
		name, from, to string
		ok             bool
	}{
		{"identical", "30.36", "30.36", true},
		{"within 0.5% + 0.02", "30.36", "30.49", true},
		{"beyond tolerance", "30.36", "30.60", false},
		{"text cell", "edge TSV", "edgy TSV", false},
		{"number for text", "(a)", "(1)", false},
	}
	for _, c := range cases {
		got := strings.Replace(golden, c.from, c.to, 1)
		bad := compareGolden("table2", golden, got)
		if (len(bad) == 0) != c.ok {
			t.Errorf("%s: %q -> %q: mismatches %v, want ok=%v", c.name, c.from, c.to, bad, c.ok)
		}
	}
	if bad := compareGolden("table2", golden, golden+"extra line\n"); len(bad) == 0 {
		t.Error("an extra line was accepted")
	}
	if !hasErrCell("x  ERR  y") || hasErrCell("ERROR") {
		t.Error("ERR cell detection is wrong")
	}
}

type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric the harness emits has a valid name and is declared in
// BENCHMARK.json with the same unit and direction, and every workload
// the harness runs is declared there.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness catalogue:\n json %v\n code %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"paper-sweeps", "paper-coopt", "serve-mixed"}) || len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v do not match the harness's", names)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
	}

	// The derivations may only produce declared per-layer names.
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	snap := obs.Snapshot{
		Counters: map[string]int64{"solve.cg-ic0.solves": 2},
		Timers:   map[string]obs.TimerSnapshot{"solve.cg-ic0.setup_time": {Count: 1, Seconds: 0.5}},
		Spans:    []obs.SpanSnapshot{{Name: "opt/fit-models", DurMS: 10}},
	}
	exps := append(sweepsExperiments(), cooptExperiments()...)
	spans := make([]benchSpan, len(exps))
	outs := make([]string, len(exps))
	emitted := []map[string]float64{
		paperLayers(snap, spans, outs, exps, 1, 2),
		serveLayers(snap, []obs.TraceSnapshot{{Spans: []obs.TraceSpanSnapshot{{Name: "solve", DurMS: 3}}}}, 1),
	}
	// timedResult and traceResult panic on an undeclared name.
	traceResult(&repRecord{Attempted: 1, MakespanS: 1}, &repRecord{Attempted: 1, MakespanS: 1})
	timedResult([]*repRecord{{Attempted: 1, MakespanS: 1, OpsMS: []float64{1}}, {Attempted: 1, MakespanS: 1, OpsMS: []float64{1}}})
	for _, m := range emitted {
		for name := range m {
			if !declared[name] {
				t.Errorf("harness emits undeclared per-layer metric %q", name)
			}
		}
	}
	if got := paperLayers(snap, spans, outs, exps, 1, 2); got["solve.solves_per_setup"] != 2 || got["opt.fit_models.calls"] != 1 {
		t.Errorf("layer derivation: solves/setup %v, fit calls %v", got["solve.solves_per_setup"], got["opt.fit_models.calls"])
	}
}
