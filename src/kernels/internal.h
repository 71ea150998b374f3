#ifndef TSQ_KERNELS_INTERNAL_H_
#define TSQ_KERNELS_INTERNAL_H_

#include <cstddef>

#include "kernels/kernels.h"

// Shared building blocks of the two variants of the three kernels (see
// KernelTable; the weighted one evaluates a group of weight vectors). Every
// TU that includes this header is compiled with -ffp-contract=off, so the
// scalar arithmetic below produces identical bit patterns whatever arch
// flags the enclosing TU uses — plain IEEE-754 add/sub/mul are fully
// determined by their operands.
//
// The determinism contract, implemented identically by both variants:
//   * element i accumulates into lane (i mod 4);
//   * the final result is (L0 + L2) + (L1 + L3) — exactly the horizontal
//     reduction a 4-wide vector performs;
//   * early-abandoning kernels test the partial reduction strictly
//     (`partial > bound`) after every full 64-element chunk of the blocked
//     region, never inside a chunk and never in the scalar tail;
//   * no fused multiply-add anywhere (FMA rounds once where mul+add rounds
//     twice, which would make results ISA-dependent);
//   * the weighted kernel's group gives each weight vector its own four
//     lanes and its own checkpoints: per element it may share d = x - y and
//     d * d across the group (neither depends on the weight), then adds
//     w_t[i] * (d * d) into vector t's lane. A vector that abandons keeps
//     the partial and `consumed` of its checkpoint; nothing later in the
//     group rewrites them, so every result is its group of one's.
//
// The AVX2 variant runs the blocked region with vectors and then feeds its
// lanes through the same Tail* helpers for the last n mod 4 elements, so
// scalar and AVX2 results agree bitwise — including for NaN, infinity and
// denormal inputs, which propagate through identical op sequences. One
// limit: where two different NaNs meet in one add (an input's quiet NaN and
// the negative default NaN that 0 * inf makes), x86 returns the first
// operand's, and the compiler may order a commutative add's operands either
// way; so NaN bits agree only while the inputs make one kind of NaN.
// Queries never meet this: their spectra are finite, so the only NaN a
// query's kernel call can make is the default one.

namespace tsq::kernels::internal {

/// Elements per early-abandon checkpoint. A multiple of 4 (the lane block)
/// so checkpoints land on identical element positions in both variants.
inline constexpr std::size_t kAbandonCheckElements = 64;

inline double ReduceLanes(const double lanes[4]) {
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

// --- per-kernel element loops over [first, last), lane = index mod 4 ---

inline void TailWeightedSquaredDistance(double lanes[4], const double* x,
                                        const double* y, const double* w,
                                        std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const double d = x[i] - y[i];
    lanes[i & 3] += w[i] * (d * d);
  }
}

// x holds interleaved (re, im) doubles, mul_re/mul_im are component-
// duplicated multiplier arrays. Even components compute re(M*X) = re*mr -
// im*mi, odd ones im(M*X) = im*mr + re*mi; the partner component is
// x[i ^ 1]. This is exactly the multiply/swap-multiply/addsub sequence the
// vector variant executes.
inline void TailTransformedToPlain(double lanes[4], const double* x,
                                   const double* q, const double* mul_re,
                                   const double* mul_im, std::size_t first,
                                   std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const double a = x[i] * mul_re[i];
    const double b = x[i ^ 1] * mul_im[i];
    const double d = ((i & 1) == 0 ? a - b : a + b) - q[i];
    lanes[i & 3] += d * d;
  }
}

inline void TailWeightedDotSums(double dot[4], double ex[4], double ey[4],
                                const double* x, const double* y,
                                const double* w, std::size_t first,
                                std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const std::size_t lane = i & 3;
    dot[lane] += w[i] * (x[i] * y[i]);
    ex[lane] += w[i] * (x[i] * x[i]);
    ey[lane] += w[i] * (y[i] * y[i]);
  }
}

}  // namespace tsq::kernels::internal

namespace tsq::kernels {

/// Raw variant tables, one per TU. Avx2 is only compiled (and only
/// referenced by dispatch.cc) on x86-64 builds.
const KernelTable& ScalarKernelTable();
const KernelTable& Avx2KernelTable();

}  // namespace tsq::kernels

#endif  // TSQ_KERNELS_INTERNAL_H_
