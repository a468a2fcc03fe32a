#!/usr/bin/env bash
# Builds the DTX benchmark from this checkout's sources and runs it, passing
# every argument through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload quorum-mix --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go to
# .bench_build/ in the root, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/perfbench/gocache"
export GOMODCACHE="$out/perfbench/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench/dtxperf" .) >&2
exec "$out/perfbench/dtxperf" -out "$out/perfbench" "$@"
