#!/usr/bin/env bash
# Builds the benchmark harness and the tempserve daemon from source and
# runs the harness. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh trace -workload serve -seed 2
#   bash bench/run.sh compare before.json after.json
#
# Arguments that do not start with a subcommand go to `bench run`.
# Everything the build and the run write (Go build cache, binaries,
# temporary files) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bin/bench" .)
go build -o "$out/bin/tempserve" ./cmd/tempserve

case "${1:-}" in
run | trace | compare) exec "$out/bin/bench" "$@" ;;
*) exec "$out/bin/bench" run "$@" ;;
esac
