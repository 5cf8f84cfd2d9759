#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash plbench/run.sh --workload lanes-direct --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# trace files stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench="$root/plbench"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$bench/go.mod" ]]; then
	echo "plbench: run from the repository root (go.mod and plbench/go.mod needed)" >&2
	exit 2
fi
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "$bench" && go build -o "$out/plbench" .)
exec "$out/plbench" -out "$out" "$@"
