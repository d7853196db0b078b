#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload kernel-grid --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, binary, span files) stays under
# .bench_build/ at the checkout root. Without the module sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its settings and telemetry counters in the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
cd "$root"
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" "$@"
