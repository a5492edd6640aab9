#!/usr/bin/env bash
# Builds the rlbench benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash rlbench/run.sh --workload serve-builtin --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch files all go
# under .bench_build/ at the checkout root, so a run reads and writes
# nothing outside the checkout. The build fails, and the script exits
# non-zero without printing a result, when the repository sources beside
# rlbench/ are missing.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$here" && go build -o "$out/rlbench" .)
cd "$root"
exec "$out/rlbench" "$@"
