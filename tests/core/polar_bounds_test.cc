#include "core/polar_bounds.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace tsq::core {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(PolarBoxMinTest, OverlappingBoxesGiveZero) {
  EXPECT_EQ(PolarBoxMinSquaredDistance(1.0, 2.0, 0.0, 1.0,  //
                                       1.5, 3.0, 0.5, 1.5),
            0.0);
}

TEST(PolarBoxMinTest, PureMagnitudeGap) {
  EXPECT_NEAR(PolarBoxMinSquaredDistance(1.0, 2.0, 0.0, 0.0,  //
                                         3.0, 4.0, 0.0, 0.0),
              1.0, 1e-12);
}

TEST(PolarBoxMinTest, PureAngleGapChordDistance) {
  // Points (magnitude fixed at 1), angle gap of pi/2: chord^2 = 2.
  EXPECT_NEAR(PolarBoxMinSquaredDistance(1.0, 1.0, 0.0, 0.0,  //
                                         1.0, 1.0, kPi / 2, kPi / 2),
              2.0, 1e-9);
}

TEST(PolarBoxMinTest, OppositeAnglesCanReachZeroViaOrigin) {
  EXPECT_NEAR(PolarBoxMinSquaredDistance(0.0, 1.0, 0.0, 0.0,  //
                                         0.0, 1.0, kPi, kPi),
              0.0, 1e-12);
}

TEST(PolarBoxMinTest, WrapAroundAngleIntervals) {
  // [3, 3.3] and [-3.3, -3] overlap modulo 2*pi -> zero distance.
  EXPECT_NEAR(PolarBoxMinSquaredDistance(1.0, 1.0, 3.0, 3.3,  //
                                         1.0, 1.0, -3.3, -3.0),
              0.0, 1e-12);
}

TEST(PolarBoxMinTest, LowerBoundsSampledPoints) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const double a_mlo = rng.Uniform(0.0, 3.0);
    const double a_mhi = a_mlo + rng.Uniform(0.0, 2.0);
    const double a_alo = rng.Uniform(-4.0, 4.0);
    const double a_ahi = a_alo + rng.Uniform(0.0, 2.0);
    const double b_mlo = rng.Uniform(0.0, 3.0);
    const double b_mhi = b_mlo + rng.Uniform(0.0, 2.0);
    const double b_alo = rng.Uniform(-4.0, 4.0);
    const double b_ahi = b_alo + rng.Uniform(0.0, 2.0);
    const double bound = PolarBoxMinSquaredDistance(
        a_mlo, a_mhi, a_alo, a_ahi, b_mlo, b_mhi, b_alo, b_ahi);
    for (int sample = 0; sample < 20; ++sample) {
      const std::complex<double> u =
          std::polar(rng.Uniform(a_mlo, a_mhi), rng.Uniform(a_alo, a_ahi));
      const std::complex<double> v =
          std::polar(rng.Uniform(b_mlo, b_mhi), rng.Uniform(b_alo, b_ahi));
      EXPECT_LE(bound, std::norm(u - v) + 1e-9)
          << "A mag[" << a_mlo << "," << a_mhi << "] ang[" << a_alo << ","
          << a_ahi << "] B mag[" << b_mlo << "," << b_mhi << "] ang[" << b_alo
          << "," << b_ahi << "]";
    }
  }
}

TEST(PolarBoxMinTest, TightForPointBoxes) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const double ma = rng.Uniform(0.0, 5.0);
    const double mb = rng.Uniform(0.0, 5.0);
    const double aa = rng.Uniform(-kPi, kPi);
    const double ab = rng.Uniform(-kPi, kPi);
    const double bound =
        PolarBoxMinSquaredDistance(ma, ma, aa, aa, mb, mb, ab, ab);
    const double exact = std::norm(std::polar(ma, aa) - std::polar(mb, ab));
    EXPECT_NEAR(bound, exact, 1e-9);
  }
}

TEST(PolarBoxMinTest, NeverBelowMagnitudeGap) {
  // Near-equal magnitudes at an angle so small that cos(gap) rounds to 1: the
  // law-of-cosines form cancels to a few ulps and could land below the
  // squared magnitude gap without the clamp.
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const double ma = rng.Uniform(0.5, 4.0);
    const double mb = ma * (1.0 + rng.Uniform(1e-9, 1e-6));
    const double angle = rng.Uniform(-kPi, kPi);
    const double gap = rng.Uniform(1e-12, 1e-8);
    const double mag_gap = mb - ma;
    EXPECT_GE(PolarBoxMinSquaredDistance(ma, ma, angle, angle, mb, mb,
                                         angle + gap, angle + gap),
              mag_gap * mag_gap);
    EXPECT_GE(PolarBoxMinSquaredDistance(mb, mb, angle + gap, angle + gap, ma,
                                         ma, angle, angle),
              mag_gap * mag_gap);
  }
}

// A random rect under `layout`: magnitude intervals in [0, 4] (some of
// them points), angle intervals up to 2.5 wide starting anywhere in
// [-4, 4], so many cross +-pi and wrap.
rstar::Rect RandomPolarRect(Rng& rng, const transform::FeatureLayout& layout) {
  std::vector<double> lo(layout.dimensions()), hi(layout.dimensions());
  for (std::size_t d = 0; d < layout.dimensions(); ++d) {
    lo[d] = hi[d] = rng.Uniform(-1.0, 1.0);  // mean/std: not distance terms
  }
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t md = layout.magnitude_dimension(i);
    const std::size_t ad = layout.angle_dimension(i);
    const bool mag_point = rng.Uniform(0.0, 1.0) < 0.3;
    const bool angle_point = rng.Uniform(0.0, 1.0) < 0.3;
    lo[md] = rng.Uniform(0.0, 3.0);
    hi[md] = lo[md] + (mag_point ? 0.0 : rng.Uniform(0.0, 1.0));
    lo[ad] = rng.Uniform(-4.0, 4.0);
    hi[ad] = lo[ad] + (angle_point ? 0.0 : rng.Uniform(0.0, 2.5));
  }
  return rstar::Rect(std::move(lo), std::move(hi));
}

TEST(RectBoundsTest, WithinAgreesWithLowerBound) {
  Rng rng(4);
  transform::FeatureLayout layout;
  layout.num_coefficients = 3;
  const double inf = std::numeric_limits<double>::infinity();
  int early = 0;  // pairs the magnitude sum alone rejects at bound = exact/2
  for (int trial = 0; trial < 3000; ++trial) {
    const rstar::Rect a = RandomPolarRect(rng, layout);
    rstar::Rect b = RandomPolarRect(rng, layout);
    if (trial % 4 == 0) {
      // Just past a's corner in every coefficient, at an angle so small
      // that cos rounds to 1: where rounding could push the full bound
      // below the magnitude sum.
      for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
        const std::size_t md = layout.magnitude_dimension(i);
        const std::size_t ad = layout.angle_dimension(i);
        const double mag = a.high(md) * (1.0 + rng.Uniform(1e-9, 1e-6));
        const double angle = a.high(ad) + rng.Uniform(1e-12, 1e-8);
        b.set_low(md, mag);
        b.set_high(md, mag);
        b.set_low(ad, angle);
        b.set_high(ad, angle);
      }
    }
    const double exact = RectPairSquaredDistanceLowerBound(a, b, layout);
    double magnitudes = 0.0;
    for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
      const std::size_t md = layout.magnitude_dimension(i);
      const double gap =
          std::max({0.0, a.low(md) - b.high(md), b.low(md) - a.high(md)});
      magnitudes += layout.coefficient_weight() * (gap * gap);
    }
    EXPECT_LE(magnitudes, exact);
    if (magnitudes > exact / 2) ++early;
    for (const double bound :
         {exact, std::nextafter(exact, -inf), std::nextafter(exact, inf),
          magnitudes, std::nextafter(magnitudes, -inf), exact / 2, 2 * exact,
          0.0, rng.Uniform(0.0, 2.0 * exact + 1.0)}) {
      EXPECT_EQ(RectPairWithinSquaredDistance(a, b, layout, bound),
                exact <= bound)
          << "trial " << trial << " bound " << bound << " exact " << exact;
    }
  }
  EXPECT_GT(early, 100);
}

TEST(RectBoundsTest, LayoutWeightingAndDimensions) {
  transform::FeatureLayout layout;  // mean/std + 2 coefficients, symmetry on
  std::vector<double> lo_a = {0.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  std::vector<double> hi_a = lo_a;
  std::vector<double> lo_b = lo_a, hi_b = hi_a;
  lo_b[2] = hi_b[2] = 2.0;
  const rstar::Rect a(lo_a, hi_a), b(lo_b, hi_b);
  EXPECT_NEAR(RectPairSquaredDistanceLowerBound(a, b, layout), 2.0, 1e-12);
  transform::FeatureLayout no_sym = layout;
  no_sym.use_symmetry = false;
  EXPECT_NEAR(RectPairSquaredDistanceLowerBound(a, b, no_sym), 1.0, 1e-12);
}

TEST(RectBoundsTest, MeanStdDimensionsDoNotContribute) {
  transform::FeatureLayout layout;
  std::vector<double> lo_a = {100.0, 5.0, 1.0, 0.0, 1.0, 0.0};
  std::vector<double> lo_b = {-100.0, 50.0, 1.0, 0.0, 1.0, 0.0};
  const rstar::Rect a(lo_a, lo_a), b(lo_b, lo_b);
  EXPECT_EQ(RectPairSquaredDistanceLowerBound(a, b, layout), 0.0);
}

TEST(RectBoundsTest, PointHelpersConsistent) {
  transform::FeatureLayout layout;
  layout.include_mean_std = false;
  const rstar::Point a = {1.0, 0.5, 2.0, -1.0};
  const rstar::Point b = {1.5, 0.7, 2.0, -1.0};
  const double via_points = PointPairSquaredDistanceLowerBound(a, b, layout);
  const double via_rect = RectPointSquaredDistanceLowerBound(
      rstar::Rect::FromPoint(a), b, layout);
  EXPECT_NEAR(via_points, via_rect, 1e-12);
  EXPECT_GT(via_points, 0.0);
}

}  // namespace
}  // namespace tsq::core
