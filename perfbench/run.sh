#!/usr/bin/env bash
# Builds freqd and the benchmark program from this checkout into
# .bench_build/, then runs the benchmark with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
# Every build and run artifact stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/freqd" ./cmd/freqd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
