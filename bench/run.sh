#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload node-read --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the root of the checkout (Go build cache, the binary, the store
# directories of a run, which the run removes) and bench/out/ (the traced
# run's span files).  Without the repository around it — a directory that
# holds only BENCHMARK.json and bench/ — the build fails, nothing is
# printed on standard output and the exit code is not 0.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/data"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/utcq-bench" .) >&2
exec "$build/utcq-bench" -dir "$build/data" -outdir "$here/out" "$@"
