// Dispatch-layer tests (ctest label `kernels`): TSQ_KERNEL_ISA resolution,
// CPUID gating, metrics accounting, and the end-to-end guarantee that
// forcing the scalar variant leaves the library's distances and
// correlations bitwise unchanged.

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/join_query.h"
#include "dft/fft.h"
#include "gtest/gtest.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "transform/builders.h"
#include "transform/spectral_transform.h"

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
  // Per pair: the Eq. 12 distance, the transformed-to-plain distance and the
  // join's correlation.
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
    EXPECT_EQ(best_bits[k], scalar_bits[k])
        << "pair " << k / 3 << ", entry point " << k % 3;
  }
}

}  // namespace
}  // namespace tsq::kernels
