#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it. Run from the repository root:
#
#	bash benchmark/run.sh --workload read --seed 1 --seconds 25 --trace 0
#	bash benchmark/run.sh --compare a.jsonl b.jsonl
#
# The build cache, the binary and the benchmark's temporary store
# directories all live in .bench_build/ at the root, so nothing is read or
# written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/cloud || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/cloud and benchmark/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/maacs-benchmark" .)
exec "$build/maacs-benchmark" "$@"
