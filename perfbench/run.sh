#!/usr/bin/env bash
# Builds the benchmark and the macrosim and macrochipd binaries it drives,
# keeping every build artifact inside the checkout's .bench_build, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(
	cd perfbench
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/" macrochip/cmd/macrosim macrochip/cmd/macrochipd
)
exec "$build/bin/perfbench" "$@"
