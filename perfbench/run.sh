#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 10
#
# The build cache, the binary, worker sockets, sweep outputs and span files
# all stay under .bench_build/ in the current directory.
set -euo pipefail

out=.bench_build/perfbench
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOTMPDIR="$PWD/$out/gotmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" .)

# The proc backend creates its worker sockets under TMPDIR. A relative path
# keeps them inside the checkout and short enough for the Unix socket limit.
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
