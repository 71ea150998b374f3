#include "core/feature.h"

#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "dft/spectrum.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/normal_form.h"

namespace tsq::core {
namespace {

constexpr double kPi = std::numbers::pi;

ts::Series RandomWalk(std::size_t n, Rng& rng) {
  ts::Series x(n);
  double v = 0.0;
  for (double& value : x) {
    v += rng.Uniform(-1.0, 1.0);
    value = v;
  }
  return x;
}

TEST(ExtractFeaturesTest, LayoutPlacement) {
  Rng rng(1);
  const std::size_t n = 128;
  const ts::Series x = RandomWalk(n, rng);
  const ts::NormalForm normal = ts::Normalize(x);
  dft::FftPlan plan(n);
  const auto spectrum = plan.Forward(std::span<const double>(normal.values));
  transform::FeatureLayout layout;
  const rstar::Point features = ExtractFeatures(
      normal.mean, normal.stddev, IndexedCoefficients(spectrum, layout),
      layout);
  ASSERT_EQ(features.size(), 6u);
  EXPECT_NEAR(features[0], normal.mean, 1e-12);
  EXPECT_NEAR(features[1], normal.stddev, 1e-12);
  EXPECT_NEAR(features[2], std::abs(spectrum[1]), 1e-12);
  EXPECT_NEAR(features[3], std::arg(spectrum[1]), 1e-12);
  EXPECT_NEAR(features[4], std::abs(spectrum[2]), 1e-12);
  EXPECT_NEAR(features[5], std::arg(spectrum[2]), 1e-12);
}

TEST(ExtractFeaturesTest, NoMeanStdLayout) {
  Rng rng(2);
  const std::size_t n = 64;
  const ts::NormalForm normal = ts::Normalize(RandomWalk(n, rng));
  dft::FftPlan plan(n);
  const auto spectrum = plan.Forward(std::span<const double>(normal.values));
  transform::FeatureLayout layout;
  layout.include_mean_std = false;
  layout.num_coefficients = 3;
  const rstar::Point features = ExtractFeatures(
      normal.mean, normal.stddev, IndexedCoefficients(spectrum, layout),
      layout);
  ASSERT_EQ(features.size(), 6u);
  EXPECT_NEAR(features[0], std::abs(spectrum[1]), 1e-12);
  EXPECT_NEAR(features[5], std::arg(spectrum[3]), 1e-12);
}

TEST(SafeAngleHalfWidthTest, FullCircleWhenMagnitudeSmall) {
  EXPECT_EQ(SafeAngleHalfWidth(1.0, 0.5), kPi);
  EXPECT_EQ(SafeAngleHalfWidth(1.0, 1.0), kPi);
  EXPECT_EQ(SafeAngleHalfWidth(0.0, 0.0), kPi);
}

TEST(SafeAngleHalfWidthTest, ShrinksWithMagnitude) {
  const double wide = SafeAngleHalfWidth(0.5, 1.0);
  const double narrow = SafeAngleHalfWidth(0.5, 10.0);
  EXPECT_GT(wide, narrow);
  EXPECT_GT(narrow, 0.0);
}

TEST(SafeAngleHalfWidthTest, CoversQualifyingAngles) {
  // For any u, v with |u - v| <= eps and |v| >= m_q, the angular gap must be
  // within the computed half width (v plays the query, u the candidate).
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const double eps = rng.Uniform(0.01, 2.0);
    const double mq = rng.Uniform(0.01, 5.0);
    const double half = SafeAngleHalfWidth(eps, mq);
    // Sample u within eps of a point with magnitude mq.
    const std::complex<double> v = std::polar(mq, rng.Uniform(-kPi, kPi));
    const double radius = rng.Uniform(0.0, eps);
    const double theta = rng.Uniform(-kPi, kPi);
    const std::complex<double> u = v + std::polar(radius, theta);
    const double gap = dft::AngularDistance(std::arg(u), std::arg(v));
    EXPECT_LE(gap, half + 1e-9)
        << "eps=" << eps << " mq=" << mq << " gap=" << gap;
  }
}

TEST(BuildQueryRegionTest, SingleIdentityTransformCentersOnQuery) {
  transform::FeatureLayout layout;
  const std::size_t n = 128;
  const transform::FeatureTransform id =
      transform::SpectralTransform::Identity(n).ToFeatureTransform(layout);
  const rstar::Point q = {10.0, 2.0, 3.0, 0.5, 1.5, -0.5};
  const double eps = 0.25;
  const rstar::Rect region = BuildQueryRegion(
      q, std::span<const transform::FeatureTransform>(&id, 1), eps, layout);
  const double eps_f = eps / std::sqrt(2.0);  // symmetry weight
  EXPECT_NEAR(region.low(2), 3.0 - eps_f, 1e-9);
  EXPECT_NEAR(region.high(2), 3.0 + eps_f, 1e-9);
  // Angle window symmetric around the query angle.
  EXPECT_NEAR(region.Center(3), 0.5, 1e-9);
  // Mean/std unbounded.
  EXPECT_LT(region.low(0), -1e100);
  EXPECT_GT(region.high(0), 1e100);
}

TEST(BuildQueryRegionTest, MagnitudeNeverNegative) {
  transform::FeatureLayout layout;
  layout.include_mean_std = false;
  const std::size_t n = 128;
  const transform::FeatureTransform id =
      transform::SpectralTransform::Identity(n).ToFeatureTransform(layout);
  const rstar::Point q = {0.1, 0.0, 0.1, 0.0};
  const rstar::Rect region = BuildQueryRegion(
      q, std::span<const transform::FeatureTransform>(&id, 1), 5.0, layout);
  EXPECT_GE(region.low(0), 0.0);
}

TEST(BuildQueryRegionTest, CoversAllTransformedQueryPoints) {
  // The region must contain every t(q) even before the epsilon expansion.
  Rng rng(4);
  transform::FeatureLayout layout;
  const std::size_t n = 128;
  const auto mvs = transform::MovingAverageRange(n, 5, 34);
  std::vector<transform::FeatureTransform> fts;
  for (const auto& t : mvs) fts.push_back(t.ToFeatureTransform(layout));

  const ts::NormalForm normal = ts::Normalize(RandomWalk(n, rng));
  dft::FftPlan plan(n);
  const auto spectrum = plan.Forward(std::span<const double>(normal.values));
  const rstar::Point q = ExtractFeatures(
      normal.mean, normal.stddev, IndexedCoefficients(spectrum, layout),
      layout);
  const rstar::Rect region = BuildQueryRegion(q, fts, 0.5, layout);
  for (const auto& ft : fts) {
    const rstar::Point tq = ft.Apply(q);
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      if (layout.is_angle_dimension(d)) {
        const double width = region.high(d) - region.low(d);
        double rel = std::remainder(tq[d] - region.low(d), 2.0 * kPi);
        if (rel < 0.0) rel += 2.0 * kPi;
        EXPECT_LE(rel, width + 1e-9);
      } else {
        EXPECT_GE(tq[d], region.low(d) - 1e-9);
        EXPECT_LE(tq[d], region.high(d) + 1e-9);
      }
    }
  }
}

TEST(BuildQueryRegionTest, LargerEpsilonWidensRegion) {
  transform::FeatureLayout layout;
  layout.include_mean_std = false;
  const std::size_t n = 128;
  const transform::FeatureTransform ft =
      transform::MovingAverageTransform(n, 10).ToFeatureTransform(layout);
  const rstar::Point q = {2.0, 0.3, 1.0, -0.7};
  const rstar::Rect narrow = BuildQueryRegion(
      q, std::span<const transform::FeatureTransform>(&ft, 1), 0.1, layout);
  const rstar::Rect wide = BuildQueryRegion(
      q, std::span<const transform::FeatureTransform>(&ft, 1), 1.0, layout);
  for (std::size_t d = 0; d < layout.dimensions(); ++d) {
    EXPECT_GE(wide.Extent(d), narrow.Extent(d));
  }
}

}  // namespace
}  // namespace tsq::core
