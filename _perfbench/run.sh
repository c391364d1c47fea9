#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload serve-numerical-256 --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and result record stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
