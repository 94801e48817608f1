#!/usr/bin/env bash
# Entry point for drivers: builds the benchmark from source inside the
# checkout it is run from (build cache and temporaries included, under
# .bench_build/) and runs it with the arguments given. People can just
# `go run ./bench`.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/kaffeos-bench" ./bench
exec "$build/kaffeos-bench" "$@"
