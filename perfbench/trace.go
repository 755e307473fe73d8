package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pdn3d/internal/obs"
)

// traceDir is where traced repetitions write their spans, inside the
// checkout's build directory.
const traceDir = ".bench_build/traces"

// benchSpan is one span the benchmark records around a call into the
// program: a Runner method or an HTTP request.
type benchSpan struct {
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	DurMS   float64           `json:"dur_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// traceFile is a traced repetition's record, kept in memory during the
// run and written when it ends: the benchmark's spans, the program's
// registry snapshot, and, for the service, each request's own trace as
// /debug/requests returned it.
type traceFile struct {
	Env      envInfo             `json:"env"`
	Spans    []benchSpan         `json:"spans"`
	Registry obs.Snapshot        `json:"registry"`
	Requests []obs.TraceSnapshot `json:"requests,omitempty"`
}

func (t *traceFile) write() error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	p := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", t.Env.Workload, t.Env.Seed))
	if err := os.WriteFile(p, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", p)
	return nil
}
