#!/usr/bin/env bash
# Builds the benchmark (and with it the program, from this checkout's
# sources) and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-optimize --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -workdir "$build" "$@"
