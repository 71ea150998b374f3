// Scalar reference variant. This TU is compiled with no arch extensions and
// -ffp-contract=off; it *defines* the numeric contract (4-lane blocked
// reduction, 64-element abandon checkpoints) the AVX2 variant must match
// bitwise — see internal.h for the contract and tests/kernels for the
// property suite that enforces it.

#include "kernels/internal.h"
#include "kernels/kernels.h"

namespace tsq::kernels {

namespace {

using internal::kAbandonCheckElements;
using internal::ReduceLanes;

EarlyAbandonResult WeightedSquaredDistanceOne(const double* x, const double* y,
                                              const double* w, std::size_t n,
                                              double bound) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  while (i + kAbandonCheckElements <= n) {
    internal::TailWeightedSquaredDistance(lanes, x, y, w, i,
                                          i + kAbandonCheckElements);
    i += kAbandonCheckElements;
    const double partial = ReduceLanes(lanes);
    if (partial > bound) return {partial, i};
  }
  internal::TailWeightedSquaredDistance(lanes, x, y, w, i, n);
  return {ReduceLanes(lanes), n};
}

// The reference group: each weight vector on its own.
void WeightedSquaredDistanceWithinScalar(const double* x, const double* y,
                                         const std::span<const double>* w,
                                         std::size_t count, std::size_t n,
                                         double bound,
                                         EarlyAbandonResult* out) {
  for (std::size_t t = 0; t < count; ++t) {
    out[t] = WeightedSquaredDistanceOne(x, y, w[t].data(), n, bound);
  }
}

EarlyAbandonResult TransformedToPlainWithinScalar(const double* x,
                                                  const double* q,
                                                  const double* mul_re,
                                                  const double* mul_im,
                                                  std::size_t n,
                                                  double bound) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  while (i + kAbandonCheckElements <= n) {
    internal::TailTransformedToPlain(lanes, x, q, mul_re, mul_im, i,
                                     i + kAbandonCheckElements);
    i += kAbandonCheckElements;
    const double partial = ReduceLanes(lanes);
    if (partial > bound) return {partial, i};
  }
  internal::TailTransformedToPlain(lanes, x, q, mul_re, mul_im, i, n);
  return {ReduceLanes(lanes), n};
}

WeightedDotSums WeightedDotSumsScalar(const double* x, const double* y,
                                      const double* w, std::size_t n) {
  double dot[4] = {0.0, 0.0, 0.0, 0.0};
  double ex[4] = {0.0, 0.0, 0.0, 0.0};
  double ey[4] = {0.0, 0.0, 0.0, 0.0};
  internal::TailWeightedDotSums(dot, ex, ey, x, y, w, 0, n);
  return {ReduceLanes(dot), ReduceLanes(ex), ReduceLanes(ey)};
}

}  // namespace

const KernelTable& ScalarKernelTable() {
  static const KernelTable table = {
      WeightedSquaredDistanceWithinScalar,
      TransformedToPlainWithinScalar,
      WeightedDotSumsScalar,
  };
  return table;
}

}  // namespace tsq::kernels
