// Dispatch-layer tests (ctest label `kernels`): TSQ_KERNEL_ISA resolution,
// CPUID gating, metrics accounting, and the end-to-end guarantee that
// forcing the scalar variant leaves the library's distances and
// correlations bitwise unchanged.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/join_query.h"
#include "dft/fft.h"
#include "dft/spectrum.h"
#include "gtest/gtest.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "transform/builders.h"
#include "transform/spectral_transform.h"
#include "ts/distance.h"
#include "ts/generate.h"
#include "ts/normal_form.h"

namespace tsq::kernels {
namespace {

TEST(ResolveIsaTest, ExplicitSupportedNamesAreHonored) {
  EXPECT_EQ(ResolveIsa("scalar", BestSupportedIsa()), Isa::kScalar);
  if (IsaSupported(Isa::kAvx2)) {
    EXPECT_EQ(ResolveIsa("avx2", BestSupportedIsa()), Isa::kAvx2);
  }
}

TEST(ResolveIsaTest, AutoEmptyUnsetAndGarbageFallBackToBest) {
  const Isa best = BestSupportedIsa();
  EXPECT_EQ(ResolveIsa(nullptr, best), best);
  EXPECT_EQ(ResolveIsa("", best), best);
  EXPECT_EQ(ResolveIsa("auto", best), best);
  EXPECT_EQ(ResolveIsa("avx512", best), best);
  EXPECT_EQ(ResolveIsa("sse2", best), best);  // no SSE2 variant
  EXPECT_EQ(ResolveIsa("SCALAR", best), best);  // names are case-sensitive
}

TEST(ResolveIsaTest, UnsupportedRequestFallsBackToBest) {
  // Pretend scalar is the best we have: requesting avx2 must not escape it.
  EXPECT_EQ(ResolveIsa("avx2", Isa::kScalar), Isa::kScalar);
}

TEST(IsaSupportTest, ScalarAlwaysSupportedAndBestIsSupported) {
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  EXPECT_TRUE(IsaSupported(BestSupportedIsa()));
  EXPECT_STREQ(IsaName(Isa::kScalar), "scalar");
  EXPECT_STREQ(IsaName(Isa::kAvx2), "avx2");
}

TEST(DispatchTest, MetricsCountCallsElementsAndAbandons) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* calls = registry.counter("engine.kernels.calls");
  obs::Counter* elements = registry.counter("engine.kernels.elements");
  obs::Counter* abandons = registry.counter("engine.kernels.early_abandons");

  const std::vector<double> x(256, 3.0);
  const std::vector<double> y(256, 1.0);
  const std::vector<double> unit(256, 1.0);

  const std::uint64_t calls0 = calls->value();
  const std::uint64_t elements0 = elements->value();
  ASSERT_DOUBLE_EQ(WeightedDotEnergies(x, y, unit).dot, 3.0 * 256);
  EXPECT_EQ(calls->value(), calls0 + 1);
  EXPECT_EQ(elements->value(), elements0 + 256);

  // d^2 accumulates 4.0 per element, so a bound of 1.0 abandons at the
  // first 64-element checkpoint: 64 elements consumed, one abandon event.
  const std::uint64_t abandons0 = abandons->value();
  const std::uint64_t elements1 = elements->value();
  const double partial = WeightedSquaredDistanceWithin(x, y, unit, 1.0);
  EXPECT_GT(partial, 1.0);
  EXPECT_EQ(abandons->value(), abandons0 + 1);
  EXPECT_EQ(elements->value(), elements1 + 64);

  // No abandon when the bound covers the full sum — and the exact value.
  const double full = WeightedSquaredDistanceWithin(x, y, unit, 4.0 * 256);
  EXPECT_DOUBLE_EQ(full, 4.0 * 256);
  EXPECT_EQ(abandons->value(), abandons0 + 1);
}

// A group call counts per weight vector: G calls, the elements each vector
// consumed, one abandon per abandoned vector.
TEST(DispatchTest, GroupCountsEachWeightVector) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* calls = registry.counter("engine.kernels.calls");
  obs::Counter* elements = registry.counter("engine.kernels.elements");
  obs::Counter* abandons = registry.counter("engine.kernels.early_abandons");

  // d^2 = 4 per element, so weight c adds 4c per element: against a bound
  // of 400, c = 1 abandons at the second checkpoint (512 at 128 elements),
  // c = 2 and c = 4 at the first (512 and 1024 at 64), and c = 0.25 (256 in
  // all) and c = 0 never do.
  const std::vector<double> x(256, 3.0);
  const std::vector<double> y(256, 1.0);
  std::vector<std::vector<double>> storage;
  for (const double c : {1.0, 0.25, 4.0, 0.0, 2.0}) {
    storage.emplace_back(256, c);
  }
  const std::vector<std::span<const double>> weights(storage.begin(),
                                                     storage.end());
  std::vector<EarlyAbandonResult> out(weights.size());

  const std::uint64_t calls0 = calls->value();
  const std::uint64_t elements0 = elements->value();
  const std::uint64_t abandons0 = abandons->value();
  WeightedSquaredDistancesWithin(x, y, weights, 400.0, out);
  EXPECT_EQ(calls->value(), calls0 + 5);
  EXPECT_EQ(elements->value(), elements0 + 128 + 256 + 64 + 256 + 64);
  EXPECT_EQ(abandons->value(), abandons0 + 3);

  const std::size_t consumed[] = {128, 256, 64, 256, 64};
  for (std::size_t t = 0; t < weights.size(); ++t) {
    EXPECT_EQ(out[t].consumed, consumed[t]) << "vector " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[t].value),
              std::bit_cast<std::uint64_t>(
                  WeightedSquaredDistanceWithin(x, y, weights[t], 400.0)))
        << "vector " << t;
  }
  EXPECT_DOUBLE_EQ(out[1].value, 256.0);
  EXPECT_DOUBLE_EQ(out[3].value, 0.0);
}

// The user-facing promise: switching ISAs never changes results. Evaluate
// the library entry points that dispatch to a kernel under the best variant
// and under forced scalar; every value must be bitwise identical.
TEST(DispatchTest, ForcedScalarMatchesBestIsaBitwise) {
  constexpr std::size_t kLength = 128;
  Rng rng(1999);
  const dft::FftPlan plan(kLength);
  std::vector<std::vector<dft::Complex>> spectra(8);
  for (auto& spectrum : spectra) {
    std::vector<double> series(kLength);
    for (double& v : series) v = rng.Uniform(-5.0, 5.0);
    spectrum = plan.Forward(series);
  }
  const transform::SpectralTransform t =
      transform::MovingAverageTransform(kLength, 10);
  // The group entry in fig5's shape: the normal forms of random walks near
  // a query walk and of independent ones, 16 moving averages 10..25 in one
  // group, the rho = 0.96 bound.
  const std::vector<transform::SpectralTransform> averages =
      transform::MovingAverageRange(kLength, 10, 25);
  std::vector<std::span<const double>> weights;
  for (const transform::SpectralTransform& average : averages) {
    weights.push_back(average.component_squared_magnitudes());
  }
  const double bound = ts::CorrelationToSquaredDistance(0.96, kLength);
  const ts::Series query_walk = ts::GenerateRandomWalk(kLength, 1.0, rng);
  std::vector<std::vector<dft::Complex>> walks;
  for (const double noise : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}) {
    ts::Series walk = query_walk;
    for (double& v : walk) v += rng.Uniform(-noise, noise);
    walks.push_back(plan.Forward(ts::Normalize(walk).values));
  }
  for (int k = 0; k < 3; ++k) {
    walks.push_back(plan.Forward(
        ts::Normalize(ts::GenerateRandomWalk(kLength, 1.0, rng)).values));
  }
  // Per pair: the Eq. 12 distance, the transformed-to-plain distance and the
  // join's correlation; per walk, the group's 16 distances to the query, each
  // bitwise one TransformedSquaredDistance call.
  std::size_t within = 0;
  std::size_t abandoned = 0;
  const auto evaluate = [&] {
    std::vector<std::uint64_t> bits;
    for (std::size_t i = 0; i < spectra.size(); ++i) {
      for (std::size_t j = i + 1; j < spectra.size(); ++j) {
        bits.push_back(std::bit_cast<std::uint64_t>(
            t.TransformedSquaredDistance(spectra[i], spectra[j])));
        bits.push_back(std::bit_cast<std::uint64_t>(
            t.TransformedToPlainSquaredDistance(spectra[i], spectra[j])));
        bits.push_back(std::bit_cast<std::uint64_t>(
            core::TransformedCorrelation(t, spectra[i], spectra[j])));
      }
    }
    std::vector<EarlyAbandonResult> out(averages.size());
    for (std::size_t w = 1; w < walks.size(); ++w) {
      WeightedSquaredDistancesWithin(dft::AsDoubles(walks[w]),
                                     dft::AsDoubles(walks[0]), weights, bound,
                                     out);
      for (std::size_t k = 0; k < averages.size(); ++k) {
        const double single = averages[k].TransformedSquaredDistance(
            walks[w], walks[0], bound);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[k].value),
                  std::bit_cast<std::uint64_t>(single))
            << IsaName(ActiveIsa()) << " walk " << w << ", average " << k;
        bits.push_back(std::bit_cast<std::uint64_t>(out[k].value));
        if (out[k].value < bound) ++within;
        if (out[k].consumed < 2 * kLength) ++abandoned;
      }
    }
    return bits;
  };

  const Isa best = BestSupportedIsa();
  ForceIsaForTesting(best);
  ASSERT_EQ(ActiveIsa(), best);
  const std::vector<std::uint64_t> best_bits = evaluate();
  ForceIsaForTesting(Isa::kScalar);
  ASSERT_EQ(ActiveIsa(), Isa::kScalar);
  const std::vector<std::uint64_t> scalar_bits = evaluate();
  ForceIsaForTesting(best);
  ASSERT_EQ(best_bits.size(), scalar_bits.size());
  for (std::size_t k = 0; k < best_bits.size(); ++k) {
    EXPECT_EQ(best_bits[k], scalar_bits[k]) << "value " << k;
  }
  // The walks near the query match some averages; the far ones abandon.
  EXPECT_GT(within, 0u);
  EXPECT_GT(abandoned, 0u);
}

}  // namespace
}  // namespace tsq::kernels
