#!/usr/bin/env bash
# Runs the solver-side benchmark suite and the differential harness and
# writes the machine-readable snapshots BENCH_solver.json (gated by
# scripts/bench_check.sh) and BENCH_diff.json at the repo root. These are
# the tracked baselines a perf-sensitive change refreshes (and CI uploads
# as artifacts); compare against the committed copies before accepting a
# regression.
#
# Usage: scripts/bench_snapshot.sh [benchtime]
#   benchtime  go test -benchtime value (default 10x; CI smoke uses 1x)
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${1:-10x}"

# bench_json PKGS PATTERN OUT
# Runs the benchmarks and converts `go test -bench` lines to JSON.
bench_json() {
  local pkgs="$1" pattern="$2" out="$3"
  local raw
  raw="$(go test $pkgs -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" -benchmem)"
  echo "$raw"
  awk -v benchtime="$BENCHTIME" '
    BEGIN {
      printf "{\n  \"benchtime\": \"%s\",\n", benchtime
      n = 0
    }
    $1 == "goos:"   { goos = $2 }
    $1 == "goarch:" { goarch = $2 }
    $1 == "pkg:"    { pkg = $2 }
    $1 ~ /^Benchmark/ && $0 ~ / ns\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      iters = $2
      nsop = bytesop = allocsop = solveiters = "null"
      for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op")       nsop = $(i - 1)
        if ($(i) == "B/op")        bytesop = $(i - 1)
        if ($(i) == "allocs/op")   allocsop = $(i - 1)
        # CG benchmarks report their convergence story; committing it
        # lets CI gate on iteration-count regressions (exact integers,
        # deterministic kernels) rather than on noisy wall time.
        if ($(i) == "iters/solve") solveiters = int($(i - 1))
      }
      line = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"iters_per_solve\": %s}",
                     pkg, name, iters, nsop, bytesop, allocsop, solveiters)
      bench[n++] = line
    }
    END {
      printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchmarks\": [\n", goos, goarch
      for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
      print "  ]\n}"
    }
  ' <<<"$raw" >"$out"
  echo "wrote $out"
}

bench_json "./internal/solve ./internal/rmesh" \
  'BenchmarkCG_IC0|BenchmarkValueSweep|BenchmarkRestamp$|BenchmarkBuildTopology' \
  BENCH_solver.json

# Differential-coverage snapshot: how much of the solver method × corpus
# matrix the differential harness checks and how tightly it agrees
# (corpus size, per-mesh solver runs, max observed relative error), plus
# the -convergence section: per-run condition estimates / terminations
# from the solve flight recorder and the per-family iteration/κ envelope.
# No timestamps or host data — the numbers move only when the corpus, the
# solver method set, or solver numerics change (error magnitudes can wiggle
# at the last digits with the worker count's reduction order).
go run ./cmd/pdnbench -convergence -out BENCH_diff.json >/dev/null
echo "wrote BENCH_diff.json ($(go run ./cmd/pdnbench -list | wc -l) corpus entries)"
