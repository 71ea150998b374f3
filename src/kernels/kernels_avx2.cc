// AVX2 variant: one 4-wide register per reduction carries the 4 lanes
// directly, so element i lands in vector lane (i mod 4) and the horizontal
// reduce matches ReduceLanes exactly. The weighted kernel runs its group in
// blocks of four weight vectors, one register each. The TU is built with
// -mavx2 -mfma -ffp-contract=off; with contraction off the compiler never
// fuses the explicit mul/add intrinsics below, keeping results bitwise
// identical to the scalar reference (see internal.h for the contract).

#include <immintrin.h>

#include "kernels/internal.h"
#include "kernels/kernels.h"

namespace tsq::kernels {

namespace {

using internal::kAbandonCheckElements;
using internal::ReduceLanes;

inline double Reduce(__m256d acc) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return ReduceLanes(lanes);
}

// One transformed complex pair per 128-bit half: re(M*X) = re*mr - im*mi in
// even slots, im(M*X) = im*mr + re*mi in odd slots. _mm256_permute_pd with
// control 0b0101 swaps (re, im) within each pair; addsub subtracts in even
// slots and adds in odd ones — the same op sequence as the scalar reference.
inline __m256d TransformedQuad(__m256d x, __m256d mre, __m256d mim) {
  const __m256d a = _mm256_mul_pd(x, mre);
  const __m256d b = _mm256_mul_pd(_mm256_permute_pd(x, 0b0101), mim);
  return _mm256_addsub_pd(a, b);
}

// --- weighted squared distance, a group of weight vectors ---

// Adds quads [first, last) of K weight vectors into their accumulators:
// d = x - y and d * d once per quad, then w_k * (d * d) into acc[k], the
// single-vector op sequence for each k. The loops over k are unrolled so
// each accumulator lives in its own register; at -O2 GCC otherwise keeps
// the array on the stack and chains every add through a store and a load.
template <std::size_t K>
inline void WeightedBlocks(__m256d (&acc)[K], const double* x,
                           const double* y, const double* const (&w)[K],
                           std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d dd = _mm256_mul_pd(d, d);
#pragma GCC unroll 4
    for (std::size_t k = 0; k < K; ++k) {
      acc[k] = _mm256_add_pd(acc[k],
                             _mm256_mul_pd(_mm256_loadu_pd(w[k] + i), dd));
    }
  }
}

// One block of K <= 4 weight vectors, one accumulator each. At every
// checkpoint each live accumulator whose partial exceeds the bound is
// frozen: its result is written then and never again (it keeps
// accumulating, unread, while the block runs). The block leaves once all K
// are frozen; the rest finish the tail and write their full sums.
template <std::size_t K>
void WeightedBlock(const double* x, const double* y,
                   const std::span<const double>* weights, std::size_t n,
                   double bound, EarlyAbandonResult* out) {
  const double* w[K];
  __m256d acc[K];
  bool live[K];
#pragma GCC unroll 4
  for (std::size_t k = 0; k < K; ++k) {
    w[k] = weights[k].data();
    acc[k] = _mm256_setzero_pd();
    live[k] = true;
  }
  std::size_t live_count = K;
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  while (i + kAbandonCheckElements <= n) {
    WeightedBlocks(acc, x, y, w, i, i + kAbandonCheckElements);
    i += kAbandonCheckElements;
#pragma GCC unroll 4
    for (std::size_t k = 0; k < K; ++k) {
      if (!live[k]) continue;
      const double partial = Reduce(acc[k]);
      if (partial > bound) {
        out[k] = {partial, i};
        live[k] = false;
        --live_count;
      }
    }
    if (live_count == 0) return;
  }
  // i <= n4: checkpoints land on multiples of 64.
  WeightedBlocks(acc, x, y, w, i, n4);
#pragma GCC unroll 4
  for (std::size_t k = 0; k < K; ++k) {
    if (!live[k]) continue;
    double lanes[4];
    _mm256_storeu_pd(lanes, acc[k]);
    internal::TailWeightedSquaredDistance(lanes, x, y, w[k], n4, n);
    out[k] = {ReduceLanes(lanes), n};
  }
}

void WeightedSquaredDistanceWithinAvx2(const double* x, const double* y,
                                       const std::span<const double>* w,
                                       std::size_t count, std::size_t n,
                                       double bound, EarlyAbandonResult* out) {
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    WeightedBlock<4>(x, y, w + t, n, bound, out + t);
  }
  switch (count - t) {
    case 3:
      WeightedBlock<3>(x, y, w + t, n, bound, out + t);
      break;
    case 2:
      WeightedBlock<2>(x, y, w + t, n, bound, out + t);
      break;
    case 1:
      WeightedBlock<1>(x, y, w + t, n, bound, out + t);
      break;
    default:
      break;
  }
}

// --- transformed-to-plain squared distance ---

inline void TransformedToPlainBlocks(__m256d& acc, const double* x,
                                     const double* q, const double* mre,
                                     const double* mim, std::size_t first,
                                     std::size_t last) {
  for (std::size_t i = first; i < last; i += 4) {
    const __m256d p = TransformedQuad(_mm256_loadu_pd(x + i),
                                      _mm256_loadu_pd(mre + i),
                                      _mm256_loadu_pd(mim + i));
    const __m256d d = _mm256_sub_pd(p, _mm256_loadu_pd(q + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
}

EarlyAbandonResult TransformedToPlainWithinAvx2(const double* x,
                                                const double* q,
                                                const double* mre,
                                                const double* mim,
                                                std::size_t n, double bound) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  while (i + kAbandonCheckElements <= n) {
    TransformedToPlainBlocks(acc, x, q, mre, mim, i,
                             i + kAbandonCheckElements);
    i += kAbandonCheckElements;
    const double partial = Reduce(acc);
    if (partial > bound) return {partial, i};
  }
  TransformedToPlainBlocks(acc, x, q, mre, mim, i, n4);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  internal::TailTransformedToPlain(lanes, x, q, mre, mim, n4 > i ? n4 : i, n);
  return {ReduceLanes(lanes), n};
}

// --- fused weighted dot/energies ---

WeightedDotSums WeightedDotSumsAvx2(const double* x, const double* y,
                                    const double* w, std::size_t n) {
  __m256d dot_v = _mm256_setzero_pd();
  __m256d ex_v = _mm256_setzero_pd();
  __m256d ey_v = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d wv = _mm256_loadu_pd(w + i);
    dot_v = _mm256_add_pd(dot_v, _mm256_mul_pd(wv, _mm256_mul_pd(xv, yv)));
    ex_v = _mm256_add_pd(ex_v, _mm256_mul_pd(wv, _mm256_mul_pd(xv, xv)));
    ey_v = _mm256_add_pd(ey_v, _mm256_mul_pd(wv, _mm256_mul_pd(yv, yv)));
  }
  double dot[4], ex[4], ey[4];
  _mm256_storeu_pd(dot, dot_v);
  _mm256_storeu_pd(ex, ex_v);
  _mm256_storeu_pd(ey, ey_v);
  internal::TailWeightedDotSums(dot, ex, ey, x, y, w, n4, n);
  return {ReduceLanes(dot), ReduceLanes(ex), ReduceLanes(ey)};
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table = {
      WeightedSquaredDistanceWithinAvx2,
      TransformedToPlainWithinAvx2,
      WeightedDotSumsAvx2,
  };
  return table;
}

}  // namespace tsq::kernels
