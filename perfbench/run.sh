#!/usr/bin/env bash
# Builds the benchmark harness and the programs it drives from this
# checkout's sources, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout: Go's build cache and module
# path are pointed there, and the harness keeps its scratch files there.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/oracled" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/oracled here)" >&2
	exit 1
fi

build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build
export GOTOOLCHAIN=local
export GOFLAGS=
export XDG_CONFIG_HOME=$build/config

go -C "$root/perfbench" build -o "$build/perfbench" .
go build -o "$build/bin/" ./cmd/oracled ./cmd/oracleherd ./cmd/campaign

exec "$build/perfbench" --build "$build" "$@"
