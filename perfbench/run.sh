#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 35 --trace 0
#
# Run from the repository root.  Everything the build writes (the binary,
# Go's build cache, temporary files) goes under $CARGO_TARGET_DIR, default
# .bench_build, so a run touches nothing outside the checkout.  The traced
# run's span dump lands there too.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOTOOLCHAIN=local

go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
