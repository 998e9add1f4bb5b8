#!/usr/bin/env bash
# Builds cmd/conserve and the perfbench load generator from source, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and every run's logs, data dirs,
# span files and records go under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/conserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/conserve and perfbench/ must be present)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR"

go build -buildvcs=false -o "$out/conserve" ./cmd/conserve
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
# Flush the binaries just written, and whatever an earlier run left
# dirty, so that no writeback competes with the journal's fsyncs while
# the benchmark measures.
sync
exec "$out/perfbench" -conserve "$out/conserve" -work "$out/perfbench-work" "$@"
