#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout and runs it from there with the arguments given. The go
# command's compiler cache and its per-user files (telemetry counters,
# go/env) are pointed into .bench_build/ too, so nothing is read or
# written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
