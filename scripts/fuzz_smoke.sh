#!/usr/bin/env bash
# Fixed-seed differential-fuzzer smoke: a ~30 s slice of the full acceptance
# sweep (fuzz_queries --seed=1..50 --iters=200). Every generated query runs
# under {scan, ST-index, MT-index, auto} x {1,4,8} threads and is checked
# against the brute-force oracle; the fault slice additionally verifies
# that injected storage errors surface as Status, never as wrong results.
# Then 160 batched cases (fuzz_queries --batch): every ExecuteBatch entry
# must equal its solo Execute in matches, stats, per-rectangle stats and
# trace signature, and one faulted read may fail at most one entry.
# Deterministic: a failure here reproduces from the printed
# `fuzz_queries [--batch] --seed=S --case=K` line.
# Last, the two concurrent-write modes (--mutate and --batch --mutate, about
# 2 s each): a writer thread commits inserts and removes while the queries
# run, and every result must match the oracle at the snapshot it pinned,
# with pinned versions that never go backwards. They share the harness's
# writer and oracle verdict with the modes above, so a change to either
# runs here under write races too, not only in ctest's short slices. Their
# cases grow the dataset, so a failure reproduces from the printed
# `fuzz_queries [--batch] --mutate --seed=S --iters=K+1` line.
#
# Usage: scripts/fuzz_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [[ ! -x "$BUILD_DIR/tools/fuzz_queries" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target fuzz_queries
fi

"$BUILD_DIR/tools/fuzz_queries" --seed=1..8 --iters=60
"$BUILD_DIR/tools/fuzz_queries" --batch --seed=1..8 --iters=20
"$BUILD_DIR/tools/fuzz_queries" --mutate --seed=1..8 --iters=20
"$BUILD_DIR/tools/fuzz_queries" --batch --mutate --seed=1..4 --iters=20
