#!/usr/bin/env bash
# Builds the engine write-path tests under ThreadSanitizer and runs them.
#
# engine_write_concurrency_test hammers the snapshot layer: eight Execute()
# threads race a continuous Insert/Remove writer (plus SaveTo and
# simulated-latency reconfiguration in a second test), so any missing
# synchronization between the write lock, the read pins and the planner
# epoch shows up as a TSAN report. engine_write_fault_test runs the
# fault-injected commit/compensate paths under the same instrumentation.
# batch_concurrency_test adds the batched path: concurrent ExecuteBatch
# calls (one pin per batch) racing the same continuous writer.
# The fuzz_mutate_smoke and fuzz_batch_mutate_smoke ctest slices run the
# differential fuzzer's concurrent-write modes: the harness's writer thread
# commits while queries and batches run at 1 and 4 threads, then hands its
# version log to the main thread for the oracle replay. Under TSAN that
# hand-off and every engine read it races are checked too.
#
# Usage: scripts/tsan_write_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DTSQ_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target \
  engine_write_fault_test engine_write_concurrency_test \
  batch_concurrency_test fuzz_queries

cd "$BUILD_DIR"
ctest --output-on-failure -R \
  'EngineWriteFault|EngineWriteConcurrency|BatchConcurrency|fuzz_mutate_smoke|fuzz_batch_mutate_smoke'
