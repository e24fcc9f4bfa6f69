#!/usr/bin/env bash
# Builds the benchmark, predictd and predictrouter from this checkout's
# source into .bench_build/ (Go build cache and the go command's own
# config and telemetry directory included, so nothing is written outside
# the checkout), then runs the benchmark from the checkout root with the
# given arguments:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/bin/" . loggpsim/cmd/predictd loggpsim/cmd/predictrouter) >&2
exec "$out/bin/perfbench" "$@"
