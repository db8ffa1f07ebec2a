#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source inside the checkout, then run it with the
# driver's arguments. Everything the Go toolchain writes — build cache,
# temporaries, the binary — stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
