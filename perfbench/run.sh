#!/usr/bin/env bash
# Builds the benchmark and cmd/tinged from this checkout's source, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dense-resident --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, generated inputs, spill
# files and the traced runs' results.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/tinged" repro/cmd/tinged
)
exec "$build/bin/perfbench" "$@"
