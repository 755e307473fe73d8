package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdn3d/internal/irdrop"
	"pdn3d/internal/memstate"
	"pdn3d/internal/obs"
	"pdn3d/internal/query"
	"pdn3d/internal/serve"
	"pdn3d/internal/solve"
)

// The serve-mixed traffic: a closed loop of nproc clients sending a
// seeded stream of /v1/analyze requests in three classes. The shares put
// the median inside the result-cache hits and the p99 inside the cold
// designs.
const (
	// streamLen puts ten requests beyond the p99.
	streamLen = 1000
	hitShare  = 0.70
	coldShare = 0.08 // the rest are solve-only requests
	// repeatDistance keeps a repeat this many stream positions behind
	// the request it repeats, so the first answer is normally cached by
	// the time the repeat is sent.
	repeatDistance = 32
	// directChecks is how many responses per class are recomputed
	// directly after the timed phase.
	directChecks = 2
	// servePitch is the benchmarks' production mesh pitch (mm); the
	// server runs with its defaults, which keep it.
	servePitch = 0.2
)

// design is one served design: a benchmark plus packaging overrides.
type design struct {
	Bench    string
	TSV      int
	Style    string
	Bonding  string
	Wirebond bool
}

func (d design) query(state string, io float64) query.Query {
	return query.Query{Bench: d.Bench, State: state, IO: io, TSV: d.TSV, Style: d.Style, Bonding: d.Bonding, Wirebond: d.Wirebond}
}

var serveBenches = []string{"ddr3-off", "ddr3-on", "wideio", "hmc"}

// residentDesigns are the designs set-up makes resident: the four
// benchmark baselines and one override design per benchmark. They are
// the same for every seed, so every stream's solve-only class costs the
// same.
func residentDesigns() []design {
	return []design{
		{Bench: "ddr3-off"}, {Bench: "ddr3-on"}, {Bench: "wideio"}, {Bench: "hmc"},
		{Bench: "ddr3-off", TSV: 120, Style: "C", Bonding: "F2B"},
		{Bench: "ddr3-on", TSV: 240, Style: "D", Bonding: "F2F"},
		{Bench: "wideio", Style: "C", Bonding: "F2B", Wirebond: true},
		{Bench: "hmc", TSV: 256, Style: "D", Bonding: "F2B"},
	}
}

// designPool enumerates the unseen designs the stream draws from, per
// benchmark, each with its own mesh shape and none a resident design's.
// The pool is larger than the server's default design cache (64).
func designPool() (map[string][]design, error) {
	tsvs := map[string][]int{
		"ddr3-off": {15, 60, 120, 240, 480},
		"ddr3-on":  {15, 60, 120, 240, 480},
		"wideio":   {0},
		"hmc":      {160, 256, 480},
	}
	styles := map[string][]string{
		"ddr3-off": {"C", "E", "D"},
		"ddr3-on":  {"C", "E", "D"},
		"wideio":   {"C", "E"},
		"hmc":      {"C", "E", "D"},
	}
	seen := map[string]bool{}
	for _, d := range residentDesigns() {
		r, err := d.query("", 0).ResolveDesign()
		if err != nil {
			return nil, err
		}
		seen[r.TopoKey()] = true
	}
	pool := map[string][]design{}
	for _, b := range serveBenches {
		for _, tsv := range tsvs[b] {
			for _, st := range styles[b] {
				for _, bond := range []string{"F2B", "F2F"} {
					for _, wb := range []bool{false, true} {
						d := design{Bench: b, TSV: tsv, Style: st, Bonding: bond, Wirebond: wb}
						r, err := d.query("", 0).ResolveDesign()
						if err != nil {
							return nil, err
						}
						if k := r.TopoKey(); !seen[k] {
							seen[k] = true
							pool[b] = append(pool[b], d)
						}
					}
				}
			}
		}
	}
	return pool, nil
}

// request is one generated /v1/analyze call.
type request struct {
	Class string // "hit", "solve" or "cold"
	Query query.Query
	Body  []byte
}

// stream is the seeded serve-mixed input: the warm-up that makes the
// resident designs resident, then the measured requests.
type stream struct {
	Warmup []request
	Reqs   []request
	// Checks are the stream positions recomputed by direct analysis.
	Checks []int
}

// genStream builds the request stream for seed. The same seed gives the
// same stream; the program sees only these generated requests.
func genStream(seed int64, n int) (*stream, error) {
	pool, err := designPool()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Interleave the shuffled per-benchmark pools so every stretch of
	// cold requests covers all four benchmarks evenly.
	for _, b := range serveBenches {
		rng.Shuffle(len(pool[b]), func(i, j int) { pool[b][i], pool[b][j] = pool[b][j], pool[b][i] })
	}
	total := 0
	for _, b := range serveBenches {
		total += len(pool[b])
	}
	var cold []design
	for i := 0; len(cold) < total; i++ {
		for _, b := range serveBenches {
			if i < len(pool[b]) {
				cold = append(cold, pool[b][i])
			}
		}
	}

	st := &stream{}
	resident := residentDesigns()
	used := map[string]bool{}
	add := func(list *[]request, class string, q query.Query) error {
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		used[string(body)] = true
		*list = append(*list, request{Class: class, Query: q, Body: body})
		return nil
	}
	for _, d := range resident {
		if err := add(&st.Warmup, "warmup", d.query("0-0-0-2", 1)); err != nil {
			return nil, err
		}
	}

	nCold := int(float64(n)*coldShare + 0.5)
	nHit := int(float64(n)*hitShare + 0.5)
	if nCold > len(cold) {
		return nil, fmt.Errorf("stream of %d wants %d cold designs, pool has %d", n, nCold, len(cold))
	}
	classes := make([]string, n)
	for i := range classes {
		switch {
		case i < nCold:
			classes[i] = "cold"
		case i < nCold+nHit:
			classes[i] = "hit"
		default:
			classes[i] = "solve"
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	// fresh draws an unused (state, io) pair on d.
	fresh := func(d design) query.Query {
		for {
			counts := make([]int, 4)
			for k := range counts {
				counts[k] = rng.Intn(memstate.MaxInterleavedBanks + 1)
			}
			q := d.query(fmt.Sprintf("%d-%d-%d-%d", counts[0], counts[1], counts[2], counts[3]), float64(1+rng.Intn(20))/20)
			if b, _ := json.Marshal(q); !used[string(b)] {
				return q
			}
		}
	}
	nextCold, nSolved := 0, 0
	for i, class := range classes {
		var q query.Query
		switch class {
		case "cold":
			q = fresh(cold[nextCold])
			nextCold++
		case "solve":
			// Round-robin over the resident designs, so every stream
			// spends its solves on the same designs.
			q = fresh(resident[nSolved%len(resident)])
			nSolved++
		case "hit":
			// Repeat a warm-up query or a first request far enough back.
			eligible := len(st.Warmup)
			var firsts []int
			for j := 0; j <= i-repeatDistance; j++ {
				if st.Reqs[j].Class != "hit" {
					firsts = append(firsts, j)
				}
			}
			k := rng.Intn(eligible + len(firsts))
			if k < eligible {
				q = st.Warmup[k].Query
			} else {
				q = st.Reqs[firsts[k-eligible]].Query
			}
		}
		if err := add(&st.Reqs, class, q); err != nil {
			return nil, err
		}
	}
	for _, class := range []string{"hit", "solve", "cold"} {
		var idx []int
		for i, r := range st.Reqs {
			if r.Class == class {
				idx = append(idx, i)
			}
		}
		for _, k := range rng.Perm(len(idx))[:min(directChecks, len(idx))] {
			st.Checks = append(st.Checks, idx[k])
		}
	}
	return st, nil
}

// reply is one finished request as the client saw it.
type reply struct {
	status  int
	body    []byte
	traceID string
	start   time.Duration // since the phase began
	dur     time.Duration
	err     error
}

// drive sends reqs through a closed loop of clients goroutines sharing
// one connection pool: each client sends its next request only after the
// previous reply arrived.
func drive(ctx context.Context, client *http.Client, url string, reqs []request, clients int) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				rp := post(ctx, client, url, reqs[i].Body)
				rp.start, rp.dur = t0.Sub(start), time.Since(t0)
				out[i] = rp
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func post(ctx context.Context, client *http.Client, url string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, traceID: resp.Header.Get("X-Trace-Id"), err: err}
}

// serveRep runs one serve-mixed repetition on a fresh server: set-up
// (construction plus the warm-up), the measured stream, then the checks.
func serveRep(seed int64, traced bool) (*repRecord, error) {
	st, err := genStream(seed, streamLen)
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	t0 := time.Now()
	cfg := serve.Config{}
	if traced {
		// Retain every request's trace so the benchmark can fetch them
		// all after the measured phase.
		cfg.TraceBufSize = len(st.Warmup) + len(st.Reqs)
	}
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	url := hs.URL + "/v1/analyze"
	warm, _ := drive(ctx, client, url, st.Warmup, clients)
	setup := time.Since(t0)

	before := srv.Registry().Snapshot()
	replies, wall := drive(ctx, client, url, st.Reqs, clients)
	after := srv.Registry().Snapshot()

	rec := &repRecord{SetupS: setup.Seconds(), MakespanS: wall.Seconds(), Digests: map[string]string{}}
	all := append(append([]request(nil), st.Warmup...), st.Reqs...)
	got := append(append([]reply(nil), warm...), replies...)
	failed := make([]string, len(all))
	first := map[string][]byte{}
	bodies := sha256.New()
	for i, rp := range got {
		switch {
		case rp.err != nil:
			failed[i] = rp.err.Error()
		case rp.status != http.StatusOK:
			failed[i] = fmt.Sprintf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		default:
			// A repeated query must return its first answer byte for byte.
			k := string(all[i].Body)
			if f, ok := first[k]; !ok {
				first[k] = rp.body
			} else if !bytes.Equal(f, rp.body) {
				failed[i] = "repeat differs from its first response"
			}
		}
		bodies.Write(rp.body)
	}
	rec.Digests["serve.bodies"] = hex.EncodeToString(bodies.Sum(nil)[:8])
	for _, i := range st.Checks {
		j := len(st.Warmup) + i
		if failed[j] == "" {
			if msg, err := checkDirect(st.Reqs[i].Query, got[j].body); err != nil {
				return nil, err
			} else if msg != "" {
				failed[j] = "direct analysis: " + msg
			}
		}
	}
	for i, f := range failed {
		if f != "" {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s request %s: %s", all[i].Class, all[i].Body, f))
		}
	}
	rec.Attempted = len(all)
	for _, rp := range replies {
		rec.OpsMS = append(rec.OpsMS, float64(rp.dur)/1e6)
	}

	rec.Env = baseEnv()
	rec.Env.Solver = solve.DefaultMethod
	rec.Env.MeshPitch = servePitch
	rec.Env.Requests = len(st.Reqs)
	rec.Env.Clients = clients
	if traced {
		traces, err := fetchTraces(ctx, client, hs.URL, replies)
		if err != nil {
			return nil, err
		}
		delta := snapshotDelta(after, before)
		rec.Layers = serveLayers(delta, traces, len(st.Reqs))
		spans := make([]benchSpan, len(st.Reqs))
		for i, rp := range replies {
			spans[i] = benchSpan{Name: "http.analyze", StartMS: float64(rp.start) / 1e6, DurMS: float64(rp.dur) / 1e6,
				Attrs: map[string]string{"class": st.Reqs[i].Class, "trace_id": rp.traceID, "status": strconv.Itoa(rp.status)}}
		}
		rec.trace = &traceFile{Spans: spans, Registry: after, Requests: traces}
	}
	return rec, nil
}

// checkDirect recomputes one query with a direct query.Resolve ->
// irdrop analysis on a freshly built mesh and compares it with the
// served body, which must agree exactly. It describes a mismatch ("" when
// they agree).
func checkDirect(q query.Query, body []byte) (string, error) {
	r, err := q.Resolve()
	if err != nil {
		return "", fmt.Errorf("resolving %+v: %w", q, err)
	}
	a, err := irdrop.New(r.Spec, r.Bench.DRAMPower, r.Logic)
	if err != nil {
		return "", fmt.Errorf("building %+v: %w", q, err)
	}
	res, err := a.Analyze(r.State, q.IO)
	if err != nil {
		return "", fmt.Errorf("analyzing %+v: %w", q, err)
	}
	perDie := make([]float64, len(res.PerDie))
	for i, v := range res.PerDie {
		perDie[i] = v * 1000
	}
	state := ""
	for i, c := range r.Counts {
		if i > 0 {
			state += "-"
		}
		state += strconv.Itoa(c)
	}
	want := serve.AnalyzeResponse{
		Design: r.Spec.Name, Bench: q.Bench, State: state, IO: q.IO,
		MaxIRmV: res.MaxIRmV(), PerDieMV: perDie, LogicIRmV: res.LogicIRmV(),
		TotalPowerMW: res.TotalPower, Iterations: res.Stats.Iterations, Converged: res.Stats.Converged,
	}
	var gotResp serve.AnalyzeResponse
	if err := json.Unmarshal(body, &gotResp); err != nil {
		return "undecodable body: " + err.Error(), nil
	}
	if !reflect.DeepEqual(want, gotResp) {
		return fmt.Sprintf("served %+v, direct %+v", gotResp, want), nil
	}
	return "", nil
}

// fetchTraces reads each measured request's trace from /debug/requests,
// outside the measured phase.
func fetchTraces(ctx context.Context, client *http.Client, base string, replies []reply) ([]obs.TraceSnapshot, error) {
	out := make([]obs.TraceSnapshot, 0, len(replies))
	for _, rp := range replies {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/requests?id="+rp.traceID, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		var ts obs.TraceSnapshot
		err = json.NewDecoder(resp.Body).Decode(&ts)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace %s: status %d: %v", rp.traceID, resp.StatusCode, err)
		}
		out = append(out, ts)
	}
	return out, nil
}

// serveLayers derives the serve, query-path and engine per-layer
// metrics of one traced serve-mixed repetition: counters over the
// measured phase, phase timings from the requests' own traces.
func serveLayers(d obs.Snapshot, traces []obs.TraceSnapshot, n int) map[string]float64 {
	m := map[string]float64{}
	phases := map[string][]float64{}
	for _, ts := range traces {
		per := map[string]float64{}
		for _, sp := range ts.Spans {
			per[sp.Name] += sp.DurMS
		}
		for _, p := range servePhases {
			if v, ok := per[p]; ok {
				phases[p] = append(phases[p], v)
			}
		}
	}
	for _, p := range servePhases {
		m["serve.phase."+p+".p50_ms"] = median(phases[p])
		m["serve.phase."+p+".tail_ms"] = tail(phases[p])
		m["serve.phase."+p+".n"] = float64(len(phases[p]))
	}
	c := func(name string) float64 { return float64(d.Counters[name]) }
	m["serve.requests"] = float64(n)
	m["serve.cache.hit_ratio"] = ratio(c("serve.cache.hits"), c("serve.cache.misses"))
	m["serve.flight.shared_ratio"] = ratio(c("serve.flight.hits"), c("serve.flight.misses"))
	m["serve.topo_cache.hit_ratio"] = ratio(c("serve.topo_cache.hits"), c("serve.topo_cache.misses"))
	m["serve.admission.queue_wait_sum_s"] = d.Timers["serve.admission.queue_wait"].Seconds
	m["serve.admission.rejected"] = c("serve.admission.rejected_busy") + c("serve.admission.rejected_draining")
	// Realized classes: a request answered without solving (cache hit or
	// a shared in-flight solve) is a hit; one that froze a new mesh
	// topology is cold; every other miss solved on a resident design.
	hits := c("serve.cache.hits") + c("serve.flight.hits")
	cold := c("rmesh.builds")
	m["serve.class_share.hit"] = hits / float64(n)
	m["serve.class_share.cold"] = cold / float64(n)
	m["serve.class_share.solve"] = (float64(n) - hits - cold) / float64(n)
	engineLayers(d, m)
	return m
}
