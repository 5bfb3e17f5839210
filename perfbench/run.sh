#!/usr/bin/env bash
# End-to-end benchmark of proqld. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 20 --trace 0
#
# Builds cmd/proqld and the benchmark program into .bench_build (Go
# build cache included, so nothing is written outside the checkout),
# then runs it. See perfbench/README.md for workloads and metrics.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ] || [ ! -d cmd/proqld ]; then
	echo "perfbench: run from the repository root (cmd/proqld and go.mod must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local

go build -o "$out/bin/proqld" ./cmd/proqld
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -proqld "$out/bin/proqld" -work "$out/work" "$@"
