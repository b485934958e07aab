#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-heavy --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
