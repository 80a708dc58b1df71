#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload service --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes —
# build cache, temporary files, module cache, its config and telemetry —
# stays in .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d bench ]]; then
  echo "bench/run.sh: run from the repository root (no go.mod here)" >&2
  exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go build -o "$build/pcnbench" ./bench
exec "$build/pcnbench" "$@"
