#!/usr/bin/env bash
# Builds the benchmark harness from the sources in this checkout and runs
# it; all arguments pass through. Run from the repository root:
#
#   bash _perfbench/run.sh --workload fig2f_saturated --seed 1 --seconds 25 --trace 0
#
# Build output (binary, Go build cache, temporary files) stays under
# $CARGO_TARGET_DIR, default .bench_build, so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and _perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

cd "$root/_perfbench"
# A checkout inside a repository git cannot read fails VCS stamping;
# the run context then reports the revision as unknown.
go build -o "$out/perfbench" . >&2 2>/dev/null || go build -buildvcs=false -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
