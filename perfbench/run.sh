#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into the build directory
# (CARGO_TARGET_DIR if set, else .bench_build at the checkout root) and runs
# it from the checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bank-contended --seed 1 --seconds 10 --trace 0
#
# The Go build cache lives in the build directory too, so nothing is written
# outside the checkout. The build fails, and the script exits non-zero, when
# the checkout holds no dstm module next to perfbench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -spans "$out/spans" "$@"
