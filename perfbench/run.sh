#!/usr/bin/env bash
# Builds the benchmark driver and cmd/serve from the checkout this is run
# in, then runs the driver with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload point-fork --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes, the Go build cache included, goes under
# .bench_build/ in the checkout. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/serve" ./cmd/serve
exec "$out/perfbench" -serve-bin "$out/serve" -work-dir "$out" "$@"
