#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's arguments
# (--workload, --seed, --seconds, --trace). Everything the build and the
# run leave behind stays under .bench_build/ in the checkout's root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# The build prints nothing on success and fails, before any result line,
# where the simulator's sources are not next to bench/.
go build -C bench -o ../.bench_build/coyotebench . >&2
exec .bench_build/coyotebench "$@"
