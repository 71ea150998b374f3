#!/usr/bin/env bash
# The full local gate, in the order a reviewer would want it to fail:
#
#   1. tier-1: configure with -DTSQ_WERROR=ON (library + test sources
#      warning-clean; bench targets are -Werror unconditionally), build
#      everything including the bench drivers, run the whole ctest suite;
#   2. the planner gate — the "-L planner" ctest label re-runs the
#      cost-model/planner regressions on their own, so an estimator
#      drift shows up as its own stage, not a needle in stage 1; then a
#      fast bench/planner_quality run (from inside the build dir, where it
#      writes its CSV) fails when kAuto's measured cost is more than 10 %
#      above the best fixed plan on Fig. 5, 6 or 9, or does not beat the
#      worst fixed plan on Fig. 9;
#   3. scripts/fuzz_smoke.sh — fixed-seed differential fuzz against the
#      brute-force oracle, fault injection included;
#   4. scripts/persist_tests.sh — crash-safety gate: the "-L persist"
#      checkpoint robustness suite plus a crash-recovery sweep that aborts
#      SaveTo at every write step and re-loads;
#   5. the batch gate — "-L batch" runs the ExecuteBatch determinism,
#      result-cache and concurrency suites plus the batched differential
#      fuzz slices, then a fast batch-throughput bench run re-verifies
#      that batched and single-query match sets are identical;
#   6. the kernel gate — "-L kernels" runs the cross-ISA bitwise identity
#      and early-abandon property suites, then the whole tier-1 suite is
#      re-run with TSQ_KERNEL_ISA=scalar: every test must pass bit-for-bit
#      on the scalar reference path too, proving SIMD is a pure speed knob;
#   7. scripts/tsan_exec_tests.sh — data-race gate over the executor and
#      the page file's concurrent read path;
#   8. scripts/tsan_write_tests.sh — data-race gate over the write path:
#      Execute() threads racing a continuous Insert/Remove writer through
#      the engine's snapshot layer;
#   9. scripts/asan_storage_tests.sh + scripts/kernel_tests.sh —
#      lifetime/UB gate over storage, exec and the SIMD kernel layer
#      (unaligned loads, complex reinterpret casts, blocked-loop tails);
#  10. python3 perfbench/selftest.py — the end-to-end benchmark driver on
#      every workload: outputs checked against the oracle, the exact-count
#      fingerprint repeatable and equal between traced and untraced runs.
#      It gates correctness only; run times are not gated (they are noise
#      on a shared host — compare commits with interleaved perfbench runs).
#
# Usage: scripts/check_all.sh [build-dir]   (default: build-check)
# The sanitizer stages use their own build trees (build-tsan, build-asan).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"

echo "==> [1/10] tier-1 build (-DTSQ_WERROR=ON) + ctest"
cmake -B "$BUILD_DIR" -S . -DTSQ_WERROR=ON
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

echo "==> [2/10] planner regressions (ctest -L planner + planner_quality)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L planner
(cd "$BUILD_DIR" && TSQ_BENCH_FAST=1 ./bench/planner_quality)

echo "==> [3/10] differential fuzz smoke (fixed seeds, oracle-checked)"
scripts/fuzz_smoke.sh "$BUILD_DIR"

echo "==> [4/10] persistence gate (ctest -L persist + crash-recovery sweep)"
scripts/persist_tests.sh "$BUILD_DIR"

echo "==> [5/10] batch gate (ctest -L batch + batch-throughput smoke)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L batch
TSQ_BENCH_FAST=1 "$BUILD_DIR"/bench/batch_throughput --threads=4

echo "==> [6/10] kernel gate (ctest -L kernels + forced-scalar tier-1 pass)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L kernels
TSQ_KERNEL_ISA=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure -j

echo "==> [7/10] ThreadSanitizer: exec + storage tests"
scripts/tsan_exec_tests.sh

echo "==> [8/10] ThreadSanitizer: engine write path (queries vs writers)"
scripts/tsan_write_tests.sh

echo "==> [9/10] Address/UB sanitizer: storage + exec + kernel tests"
scripts/asan_storage_tests.sh
scripts/kernel_tests.sh

echo "==> [10/10] benchmark self-test (perfbench outputs + fingerprints)"
python3 perfbench/selftest.py

echo "==> all checks passed"
