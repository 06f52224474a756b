#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see perfbench/README.md). Build output, the Go build
# cache and the compiler's temporary files live under .bench_build, so
# nothing is written outside the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
