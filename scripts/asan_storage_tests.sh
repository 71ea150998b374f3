#!/usr/bin/env bash
# Builds the storage and executor tests under Address+UB sanitizers and runs
# them.
#
# TSan finds the races; ASan/UBSan find lifetime bugs and out-of-bounds
# copies on the read path: record page-walks into caller spans
# (record_store_test, dataset_test), R*-tree node decoding straight from
# page bytes (rstar_tree_test), the recursive self-join with its
# tampered-node cases (rtree_join_test, join_query_test), the best-first
# k-NN search (knn_query_test), the engine's error paths under injected
# read faults (engine_fault_test), and the one range executor that serves
# Execute() and ExecuteBatch() alike (range_query_test,
# batch_determinism_test). The k-NN and join suites include the malformed
# partition cases whose out-of-range indices once read past the
# transformation vector. The feature-level bound (polar_bounds_test) reads
# the dataset's flat array of cartesian coefficients (Dataset::coefficients,
# checked against the records by dataset_test and persistence_test) by ids
# that come from disk, in the range, k-NN and join executors, and the
# join's predicate (RectBoundsTest) and the polar box bound (PolarBoxMin)
# index raw prepared-box buffers, as the circular interval tests and the
# angle reduction (transform_mbr_test) do through their callers; the
# tampered-leaf cases of checkpoint_robustness_test check that an id past
# the dataset never indexes it. The planner's survivor sample indexes the
# same array by the leaf-entry ids the cost estimator's walk reads from disk
# (cost_model_test, planner_test). stats_invariance_test, engine_test,
# parser_test, compiler_test and workload_generator_test hold cases whose
# names the filter also matches; every binary with a case the filter names
# is built here, so a fresh build directory runs the same cases as the
# tier-1 one: 239, as `ctest -N -R <filter>` lists them there.
# Run this alongside scripts/tsan_exec_tests.sh when touching src/storage,
# src/rstar, src/exec or the range executor.
#
# Usage: scripts/asan_storage_tests.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DTSQ_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target \
  page_file_test atomic_file_test record_store_test \
  persistence_test checkpoint_robustness_test dataset_test rstar_tree_test \
  rtree_join_test join_query_test knn_query_test engine_fault_test \
  range_query_test batch_determinism_test polar_bounds_test \
  transform_mbr_test parallel_test exec_determinism_test exec_concurrency_test \
  batch_concurrency_test stats_invariance_test engine_test parser_test \
  compiler_test workload_generator_test cost_model_test planner_test

cd "$BUILD_DIR"
ctest --output-on-failure -R 'PageFile|AtomicFile|RecordStore|Persistence|CheckpointRobustness|Dataset|RStarTree|SpatialJoin|JoinQueryTest|TransformedCorrelation|DistanceJoinEquivalence|EffectiveThreads|ParallelFor|Chunk|ExecutorDeterminism|ExecutorConcurrency|BatchConcurrency|RangeQuery|BatchDeterminism|KnnQuery|EngineFault|PolarBound|PolarBoxMin|RectBounds|CircularIntervals|CircularSeparation|CostEstimator|CostModelScaling|Planner'
