#!/usr/bin/env bash
# Builds verdictbench from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash verdictbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f verdictbench/go.mod || ! -d internal ]]; then
	echo "verdictbench: run from the repository root (needs go.mod, internal/ and verdictbench/)" >&2
	exit 2
fi

root=$(pwd)
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR"

(cd verdictbench && go build -o "$root/.bench_build/verdictbench" .)
exec "$root/.bench_build/verdictbench" "$@"
