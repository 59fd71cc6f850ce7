#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments given. Everything the build writes —
# binary, build cache, temporary files, the go command's own state —
# goes under .bench_build/ in the checkout, nothing outside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a profam checkout: the program's source is not here" >&2
	exit 3
fi
build="$PWD/.bench_build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With telemetry in its default local mode the go command starts a
# detached child of itself that outlives the build; the mode file is the
# only switch it has.
mkdir -p "$build/tmp" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/profam-bench" ./bench
exec "$build/profam-bench" "$@"
