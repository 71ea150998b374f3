// Property suite for the SIMD kernel layer (ctest label `kernels`).
//
// The load-bearing property is *bitwise* cross-ISA identity: the AVX2
// variant of every kernel must produce the exact same bit pattern as the
// scalar reference for every input — random, unaligned, denormal, NaN,
// infinite. Query results must never depend on which ISA the dispatcher
// picked.
//
// The second property is the early-abandon contract: a Within kernel that
// does not abandon returns the bitwise-exact full sum (checked against the
// test-local reference loops below); when it abandons, the returned partial
// exceeds the bound (hence so does the true sum), and it stopped at a
// 64-element checkpoint.

#include "kernels/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "kernels/internal.h"

namespace tsq::kernels {
namespace {

constexpr std::size_t kMaxLength = 257;
constexpr std::size_t kMaxOffset = 3;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kQnan = std::numeric_limits<double>::quiet_NaN();

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Bitwise equality that treats any NaN payload mismatch as failure too —
// identical op sequences must produce identical payloads.
::testing::AssertionResult SameBits(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << Bits(a) << ") vs " << b << " (0x"
         << Bits(b) << ")";
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Full-sum references for the early-abandoning kernels: the 4-lane blocked
// reduction of the determinism contract (element i accumulates into lane
// i mod 4, lanes folded as (L0 + L2) + (L1 + L3)), written out as plain
// loops so the contract checks do not lean on a kernel under test. This TU
// is built with -ffp-contract=off, like the kernels.
double FoldLanes(const double lanes[4]) {
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double ReferenceWeightedSquaredDistance(const double* x, const double* y,
                                        const double* w, std::size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    lanes[i % 4] += w[i] * (d * d);
  }
  return FoldLanes(lanes);
}

// x holds interleaved (re, im) doubles; mre/mim are component-duplicated
// multipliers, so component i of M*X is x[i]*mre[i] -/+ x[i^1]*mim[i].
double ReferenceTransformedToPlain(const double* x, const double* q,
                                   const double* mre, const double* mim,
                                   std::size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = x[i] * mre[i];
    const double b = x[i ^ 1] * mim[i];
    const double d = (i % 2 == 0 ? a - b : a + b) - q[i];
    lanes[i % 4] += d * d;
  }
  return FoldLanes(lanes);
}

// One buffer per operand, kMaxOffset doubles longer than the longest test
// span so every offset in [0, kMaxOffset] yields a valid (and usually
// unaligned) view.
struct Inputs {
  std::vector<double> x, y, w, q;
};

Inputs FillRandom(Rng& rng) {
  Inputs in;
  const std::size_t size = kMaxLength + kMaxOffset + 1;
  in.x.resize(size);
  in.y.resize(size);
  in.w.resize(size);
  in.q.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    in.x[i] = rng.Uniform(-10.0, 10.0);
    in.y[i] = rng.Uniform(-10.0, 10.0);
    in.w[i] = rng.Uniform(0.0, 4.0);
    in.q[i] = rng.Uniform(-10.0, 10.0);
  }
  return in;
}

// Large mean, tiny variance — the ill-conditioned regime — plus a sprinkle
// of denormals, NaNs and infinities so special values flow through every
// lane position.
Inputs FillNasty(Rng& rng) {
  Inputs in = FillRandom(rng);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    in.x[i] = 1.0e12 + rng.Uniform(-1e-3, 1e-3);
    in.y[i] = 1.0e12 + rng.Uniform(-1e-3, 1e-3);
    switch (rng.UniformInt(0, 19)) {
      case 0:
        in.x[i] = 4.9406564584124654e-324;  // smallest denormal
        break;
      case 1:
        in.y[i] = -2.2250738585072009e-308;  // largest-magnitude denormal
        break;
      case 2:
        in.x[i] = kQnan;
        break;
      case 3:
        in.y[i] = i % 2 == 0 ? kInf : -kInf;
        break;
      default:
        break;
    }
  }
  return in;
}

template <typename Fn>
void ForEachCase(Fn&& fn) {
  Rng rng(20260808);
  const Inputs random = FillRandom(rng);
  const Inputs nasty = FillNasty(rng);
  for (const Inputs* in : {&random, &nasty}) {
    for (std::size_t n = 1; n <= kMaxLength; ++n) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        fn(*in, n, off);
      }
    }
  }
}

// Bounds every Within kernel is checked at: +inf (never abandons) and
// finite bounds relative to the full sum, from the first 64-element
// checkpoint abandoning to no abandon at all.
std::vector<double> BoundsFor(double full) {
  return {kInf, 0.0, full * 0.25, full * 0.5, full, full * 2.0};
}

::testing::AssertionResult SameResult(const EarlyAbandonResult& a,
                                      const EarlyAbandonResult& b) {
  if (a.consumed != b.consumed) {
    return ::testing::AssertionFailure()
           << "consumed " << a.consumed << " vs " << b.consumed;
  }
  return SameBits(a.value, b.value);
}

// The weighted kernel on a group of one weight vector.
EarlyAbandonResult WeightedOne(const KernelTable& table, const double* x,
                               const double* y, const double* w,
                               std::size_t n, double bound) {
  const std::span<const double> weights(w, n);
  EarlyAbandonResult r;
  table.weighted_squared_distance_within(x, y, &weights, 1, n, bound, &r);
  return r;
}

TEST(KernelBitwiseTest, WeightedSquaredDistanceMatchesScalarOnAllIsas) {
  const std::vector<Isa> isas = SupportedIsas();
  const KernelTable& ref = TableFor(Isa::kScalar);
  ForEachCase([&](const Inputs& in, std::size_t n, std::size_t off) {
    const double* x = in.x.data() + off;
    const double* y = in.y.data() + off;
    const double* w = in.w.data() + off;
    const double full = ReferenceWeightedSquaredDistance(x, y, w, n);
    for (const double bound : BoundsFor(full)) {
      const EarlyAbandonResult expected = WeightedOne(ref, x, y, w, n, bound);
      for (const Isa isa : isas) {
        EXPECT_TRUE(SameResult(expected,
                               WeightedOne(TableFor(isa), x, y, w, n, bound)))
            << IsaName(isa) << " n=" << n << " off=" << off
            << " bound=" << bound;
      }
    }
  });
}

// The weighted kernel's group: every weight vector's result is its group
// of one's on the scalar reference, whatever the group size (every
// remainder of AVX2's blocks of four, and fig5's 16 transformations), on
// every ISA. Weight vector t is the shared random weights scaled by a power
// of two (exact, so its full sum is 2^e_t times the unscaled one) and stored
// at its own alignment. Under a bound near the unscaled sum the heavy
// vectors of one group abandon at different checkpoints and the light ones
// never do.
TEST(KernelBitwiseTest, WeightedGroupMatchesGroupsOfOneOnAllIsas) {
  constexpr std::size_t kMaxGroup = 16;
  const std::vector<Isa> isas = SupportedIsas();
  const KernelTable& ref = TableFor(Isa::kScalar);
  std::vector<double> scales(kMaxGroup);
  for (std::size_t t = 0; t < kMaxGroup; ++t) {
    scales[t] = std::ldexp(1.0, static_cast<int>((t * 5) % 9) - 4);
  }
  // A weight vector that never abandons. Not 0: 0 * inf would make a second
  // kind of NaN beside the inputs' quiet NaN (see internal.h).
  scales[6] = std::ldexp(1.0, -40);
  bool saw_mixed_group = false;
  ForEachCase([&](const Inputs& in, std::size_t n, std::size_t off) {
    const double* x = in.x.data() + off;
    const double* y = in.y.data() + off;
    std::vector<std::vector<double>> buffers(kMaxGroup);
    std::vector<std::span<const double>> weights(kMaxGroup);
    for (std::size_t t = 0; t < kMaxGroup; ++t) {
      const std::size_t shift = (off + t) % (kMaxOffset + 1);
      buffers[t].resize(n + shift);
      for (std::size_t i = 0; i < n; ++i) {
        buffers[t][shift + i] = in.w[off + i] * scales[t];
      }
      weights[t] = std::span<const double>(buffers[t].data() + shift, n);
    }
    const double unit =
        ReferenceWeightedSquaredDistance(x, y, in.w.data() + off, n);
    std::vector<double> bounds = BoundsFor(unit);
    bounds.push_back(unit * 3.0);
    for (const double bound : bounds) {
      std::vector<EarlyAbandonResult> expected(kMaxGroup);
      for (std::size_t t = 0; t < kMaxGroup; ++t) {
        expected[t] = WeightedOne(ref, x, y, weights[t].data(), n, bound);
      }
      for (const std::size_t count :
           {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u}) {
        for (const Isa isa : isas) {
          std::vector<EarlyAbandonResult> out(count);
          TableFor(isa).weighted_squared_distance_within(
              x, y, weights.data(), count, n, bound, out.data());
          for (std::size_t t = 0; t < count; ++t) {
            EXPECT_TRUE(SameResult(expected[t], out[t]))
                << IsaName(isa) << " group of " << count << ", vector " << t
                << " n=" << n << " off=" << off << " bound=" << bound;
          }
        }
      }
      // The sweep holds groups whose vectors abandon at different
      // checkpoints beside vectors that never abandon.
      if (n == 256 && off == 0 && bound == unit && std::isfinite(unit)) {
        std::vector<std::size_t> consumed;
        for (const EarlyAbandonResult& r : expected) {
          consumed.push_back(r.consumed);
        }
        std::sort(consumed.begin(), consumed.end());
        consumed.erase(std::unique(consumed.begin(), consumed.end()),
                       consumed.end());
        saw_mixed_group = saw_mixed_group ||
                          (consumed.size() >= 3 && consumed.back() == n);
      }
    }
  });
  EXPECT_TRUE(saw_mixed_group);
}

TEST(KernelBitwiseTest, TransformedToPlainMatchesScalarOnAllIsas) {
  const std::vector<Isa> isas = SupportedIsas();
  const KernelTable& ref = TableFor(Isa::kScalar);
  // Interleaved complex data: even lengths, even offsets (component pairs).
  ForEachCase([&](const Inputs& in, std::size_t n, std::size_t off) {
    if (n % 2 != 0 || off % 2 != 0) return;
    const double* x = in.x.data() + off;
    const double* q = in.q.data() + off;
    const double* mre = in.y.data() + off;
    const double* mim = in.w.data() + off;
    const double full = ReferenceTransformedToPlain(x, q, mre, mim, n);
    for (const double bound : BoundsFor(full)) {
      const EarlyAbandonResult expected =
          ref.transformed_to_plain_within(x, q, mre, mim, n, bound);
      for (const Isa isa : isas) {
        EXPECT_TRUE(SameResult(expected,
                               TableFor(isa).transformed_to_plain_within(
                                   x, q, mre, mim, n, bound)))
            << IsaName(isa) << " n=" << n << " off=" << off
            << " bound=" << bound;
      }
    }
  });
}

TEST(KernelBitwiseTest, WeightedDotSumsMatchScalarOnAllIsas) {
  const std::vector<Isa> isas = SupportedIsas();
  const KernelTable& ref = TableFor(Isa::kScalar);
  ForEachCase([&](const Inputs& in, std::size_t n, std::size_t off) {
    const double* x = in.x.data() + off;
    const double* y = in.y.data() + off;
    const double* w = in.w.data() + off;
    const WeightedDotSums expected = ref.weighted_dot_sums(x, y, w, n);
    for (const Isa isa : isas) {
      const WeightedDotSums got = TableFor(isa).weighted_dot_sums(x, y, w, n);
      EXPECT_TRUE(SameBits(expected.dot, got.dot))
          << IsaName(isa) << " n=" << n;
      EXPECT_TRUE(SameBits(expected.energy_x, got.energy_x))
          << IsaName(isa) << " n=" << n;
      EXPECT_TRUE(SameBits(expected.energy_y, got.energy_y))
          << IsaName(isa) << " n=" << n;
    }
  });
}

// The early-abandon contract, checked for every ISA against the test-local
// full-sum references:
//  * consumed == n  =>  value is the bitwise-exact full sum;
//  * consumed < n   =>  value > bound, the true sum > bound, and the kernel
//    stopped at a 64-element checkpoint;
//  * a bound at exactly the full sum is never abandoned (strict test).
::testing::AssertionResult ExactOrAboveBound(const EarlyAbandonResult& r,
                                             double full, std::size_t n,
                                             double bound) {
  if (r.consumed == n) return SameBits(full, r.value);
  if (!(r.value > bound) || !(full > bound)) {
    return ::testing::AssertionFailure()
           << "abandoned at " << r.consumed << " with partial " << r.value
           << ", full " << full << ", bound " << bound;
  }
  if (r.consumed == 0 || r.consumed % internal::kAbandonCheckElements != 0) {
    return ::testing::AssertionFailure()
           << "abandoned off a checkpoint at " << r.consumed;
  }
  return ::testing::AssertionSuccess();
}

TEST(EarlyAbandonTest, WithinIsExactOrProvablyAboveBound) {
  Rng rng(424242);
  const Inputs in = FillRandom(rng);
  for (const Isa isa : SupportedIsas()) {
    const KernelTable& table = TableFor(isa);
    for (std::size_t n : {1u, 63u, 64u, 65u, 128u, 200u, 256u, 257u}) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        const double* x = in.x.data() + off;
        const double* y = in.y.data() + off;
        const double* w = in.w.data() + off;
        const double full = ReferenceWeightedSquaredDistance(x, y, w, n);
        for (const double bound : BoundsFor(full)) {
          EXPECT_TRUE(ExactOrAboveBound(WeightedOne(table, x, y, w, n, bound),
                                        full, n, bound))
              << IsaName(isa) << " n=" << n << " off=" << off;
        }
        // Bound exactly at the full sum: strict abandon must not trigger.
        const EarlyAbandonResult exact = WeightedOne(table, x, y, w, n, full);
        EXPECT_EQ(exact.consumed, n) << IsaName(isa) << " n=" << n;
        EXPECT_TRUE(SameBits(full, exact.value)) << IsaName(isa);
      }
    }
  }
}

TEST(EarlyAbandonTest, WithinResultsBitwiseIdenticalAcrossIsas) {
  Rng rng(77);
  const Inputs in = FillRandom(rng);
  const KernelTable& ref = TableFor(Isa::kScalar);
  for (const Isa isa : SupportedIsas()) {
    const KernelTable& table = TableFor(isa);
    for (std::size_t n : {64u, 128u, 257u}) {
      const double* x = in.x.data();
      const double* y = in.y.data();
      const double* w = in.w.data();
      const double* q = in.q.data();
      const double wfull = ReferenceWeightedSquaredDistance(x, y, w, n);
      for (const double bound : {wfull * 0.1, wfull * 0.9, wfull * 1.1}) {
        EXPECT_TRUE(SameResult(WeightedOne(ref, x, y, w, n, bound),
                               WeightedOne(table, x, y, w, n, bound)))
            << IsaName(isa) << " n=" << n;
      }
      // Complex data: whole (re, im) pairs only.
      const std::size_t m = n & ~std::size_t{1};
      const double tfull = ReferenceTransformedToPlain(x, q, y, w, m);
      for (const double bound : {tfull * 0.1, tfull * 0.9, tfull * 1.1}) {
        EXPECT_TRUE(SameResult(
            ref.transformed_to_plain_within(x, q, y, w, m, bound),
            table.transformed_to_plain_within(x, q, y, w, m, bound)))
            << IsaName(isa) << " n=" << m;
      }
    }
  }
}

TEST(EarlyAbandonTest, TransformedToPlainWithinContract) {
  Rng rng(99);
  const Inputs in = FillRandom(rng);
  for (const Isa isa : SupportedIsas()) {
    const KernelTable& table = TableFor(isa);
    for (std::size_t n : {2u, 64u, 128u, 256u}) {
      const double* x = in.x.data();
      const double* q = in.q.data();
      const double* mre = in.y.data();
      const double* mim = in.w.data();
      const double full = ReferenceTransformedToPlain(x, q, mre, mim, n);
      for (const double bound : BoundsFor(full)) {
        EXPECT_TRUE(ExactOrAboveBound(
            table.transformed_to_plain_within(x, q, mre, mim, n, bound), full,
            n, bound))
            << IsaName(isa) << " n=" << n;
      }
      const EarlyAbandonResult exact =
          table.transformed_to_plain_within(x, q, mre, mim, n, full);
      EXPECT_EQ(exact.consumed, n) << IsaName(isa) << " n=" << n;
      EXPECT_TRUE(SameBits(full, exact.value)) << IsaName(isa);
    }
  }
}

}  // namespace
}  // namespace tsq::kernels
