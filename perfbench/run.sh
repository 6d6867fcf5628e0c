#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload sim-sync --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and span logs go under $CARGO_TARGET_DIR (default .bench_build) there.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
export PERFBENCH_COMMIT CARGO_TARGET_DIR=$out
exec "$out/perfbench" "$@"
