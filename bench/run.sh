#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given flags from
# the repository root. Everything the build writes, the Go build cache and
# the go command's own config and telemetry files included, stays in
# .bench_build/ under the root.
#
#   bash bench/run.sh -workload tmcc-steady -seed 42 -seconds 28 -trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/tmccbench" .)
cd "$root"
exec "$out/tmccbench" "$@"
