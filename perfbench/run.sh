#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload local-queued --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind — the binary and the Go tool's own
# caches — goes to .bench_build/ in the current directory, so a run reads
# and writes nothing outside its checkout. Outside a checkout of the
# middleware (no ../go.mod for perfbench/go.mod to replace with) the build
# fails and so does this script.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The perfbench build tag keeps these files out of the parent module's lint
# suite, whose loader walks every directory regardless of go.mod boundaries
# (BENCHMARK.md, "Where the benchmark lives").
go build -C "$here" -tags perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
