#!/usr/bin/env bash
# Builds j2kbench from the sources of the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash bench/j2kbench/run.sh --workload lossless-mq --seed 1 --seconds 30 --trace 0
#   bash bench/j2kbench/run.sh -seed 1 -out results.json
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/j2kbench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "j2kbench: run from the repository root (go.mod, bench/j2kbench, BENCHMARK.json)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd bench/j2kbench && go build -o "$build/j2kbench" .)
exec "$build/j2kbench" "$@"
