#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload scan-pat --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory. Outside a full checkout (no ../go.mod beside perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
