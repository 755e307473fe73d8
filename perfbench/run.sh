#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it
# from the checkout root, forwarding every argument:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 7 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1
#
# Build products, the Go build cache and trace files stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
