#!/usr/bin/env bash
# Builds the kernel-layer test suites and the differential fuzzer under
# Address+UB sanitizers and runs them.
#
# The kernel TUs do exactly the kind of work sanitizers are good at
# auditing: reinterpret_cast from std::complex to interleaved doubles,
# unaligned vector loads at every offset, and blocked loops whose tail
# handling is easy to get off by one. The property suite already sweeps
# lengths 1..257 at offsets 0..3, and the weighted kernel's groups of 1..9
# and 16 weight vectors at their own alignments, so running it under
# ASan/UBSan turns any out-of-bounds lane read into a hard failure instead
# of a silently correct-looking sum. The `kernels` label holds 14 cases
# (kernel_property_test and kernel_dispatch_test), as `ctest -N -L kernels`
# lists them in the tier-1 build.
#
# The fuzz_smoke ctest slice (label `fuzz`) then runs whole queries: every
# plain case repeats each algorithm's 1-thread run under the other kernel
# ISA, so both variants' kernels read real record spectra and query
# spectra under the sanitizers, not only the property suite's buffers.
#
# Usage: scripts/kernel_tests.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DTSQ_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target kernel_property_test kernel_dispatch_test \
  fuzz_queries

ctest --test-dir "$BUILD_DIR" --output-on-failure -L kernels
ctest --test-dir "$BUILD_DIR" --output-on-failure -L fuzz
