#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# (bench/ is its own module, replacing repro with the checkout above it)
# and runs it with the arguments it was given. Everything it writes —
# build cache, binary, the stores of a run — stays under .bench_build in
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOWORK=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -workdir "$build/work" "$@"
