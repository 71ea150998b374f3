#!/usr/bin/env bash
# Builds the executor and storage tests under ThreadSanitizer and runs them.
#
# The exec tests (parallel_test, exec_determinism_test,
# exec_concurrency_test) exercise the concurrent query path; the storage
# tests (page_file_test, record_store_test) exercise PageFile::Read's
# copy-under-the-lock, verify-outside-it read path racing a writer.
# Together they are the repo's data-race gate. stats_invariance_test and
# batch_determinism_test hold cases whose names the filter also matches
# (per-query page counts reconciled against PageFile reads); every binary
# with a case the filter names is built here, so a fresh build directory
# runs the same cases as the tier-1 one.
#
# Usage: scripts/tsan_exec_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DTSQ_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target \
  parallel_test exec_determinism_test exec_concurrency_test \
  page_file_test record_store_test stats_invariance_test \
  batch_determinism_test

cd "$BUILD_DIR"
ctest --output-on-failure -R 'EffectiveThreads|ParallelFor|Chunk|ExecutorDeterminism|ExecutorConcurrency|PageFile|RecordStore'
