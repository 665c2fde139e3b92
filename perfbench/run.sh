#!/usr/bin/env bash
# run.sh — build rrsd and the perfbench command from this checkout, then
# run one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload raster-f32 --seed 1 --seconds 25 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the
# two binaries, the Go build cache, port files and span dumps. The last
# line of its standard output is the result as one JSON object.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
    echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
# Build both binaries in one module so they share the toolchain and the
# cache; perfbench/go.mod points the roughsurface module at the
# repository root.
(
    cd "$root/perfbench"
    go build -o "$out/rrsd" roughsurface/cmd/rrsd
    go build -o "$out/perfbench" .
)
exec "$out/perfbench" -rrsd "$out/rrsd" -run-dir "$out/run" -src "$root" "$@"
