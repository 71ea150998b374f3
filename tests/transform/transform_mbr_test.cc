#include "transform/transform_mbr.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "transform/builders.h"

namespace tsq::transform {
namespace {

constexpr double kPi = std::numbers::pi;

FeatureLayout NoStatsLayout() {
  FeatureLayout layout;
  layout.include_mean_std = false;
  return layout;
}

TEST(SmallestCircularIntervalTest, NonWrappingSet) {
  const std::vector<double> angles = {-0.5, 0.0, 1.0};
  const auto [lo, hi] = SmallestCircularInterval(angles);
  EXPECT_NEAR(lo, -0.5, 1e-12);
  EXPECT_NEAR(hi, 1.0, 1e-12);
}

TEST(SmallestCircularIntervalTest, WrappingSet) {
  // {-3, 3} are 0.566 rad apart across the pi boundary.
  const std::vector<double> angles = {-3.0, 3.0};
  const auto [lo, hi] = SmallestCircularInterval(angles);
  EXPECT_NEAR(lo, 3.0, 1e-12);
  EXPECT_NEAR(hi, -3.0 + 2.0 * kPi, 1e-12);
  EXPECT_LT(hi - lo, 1.0);
}

TEST(SmallestCircularIntervalTest, SingleAngle) {
  const std::vector<double> angles = {1.25};
  const auto [lo, hi] = SmallestCircularInterval(angles);
  EXPECT_EQ(lo, hi);
  EXPECT_NEAR(lo, 1.25, 1e-12);
}

TEST(SmallestCircularIntervalTest, CoversAllInputsModulo2Pi) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> angles(1 + trial % 7);
    for (double& a : angles) a = rng.Uniform(-kPi, kPi);
    const auto [lo, hi] = SmallestCircularInterval(angles);
    EXPECT_LE(hi - lo, 2.0 * kPi + 1e-9);
    for (double a : angles) {
      // a (possibly + 2pi) must land inside [lo, hi].
      const bool inside = (a >= lo - 1e-9 && a <= hi + 1e-9) ||
                          (a + 2.0 * kPi >= lo - 1e-9 &&
                           a + 2.0 * kPi <= hi + 1e-9);
      EXPECT_TRUE(inside) << "angle " << a << " not in [" << lo << ", " << hi
                          << "]";
    }
  }
}

// Same value bit for bit: also tells -0.0 from 0.0 and compares NaNs.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(CircularSeparationTest, SameBitsAsFabsOfRemainder) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> xs = {nan, -nan, 1e3, -1e3, inf, -inf};
  // The branch boundaries and one turn past them, with their neighbours.
  for (const double x : {0.0, kPi, 2.0 * kPi, 3.0 * kPi}) {
    for (const double signed_x : {x, -x}) {
      xs.push_back(signed_x);
      xs.push_back(std::nextafter(signed_x, -inf));
      xs.push_back(std::nextafter(signed_x, inf));
    }
  }
  Rng rng(7);
  for (int i = 0; i < 400000; ++i) xs.push_back(rng.Uniform(-40.0, 40.0));
  for (const double x : xs) {
    const double expected = std::fabs(std::remainder(x, 2.0 * kPi));
    EXPECT_TRUE(SameBits(CircularSeparation(x), expected))
        << std::hexfloat << "x " << x << ": " << CircularSeparation(x)
        << " against " << expected;
  }
}

TEST(CircularIntervalsIntersectTest, PlainOverlap) {
  EXPECT_TRUE(CircularIntervalsIntersect(0.0, 1.0, 0.5, 2.0));
  EXPECT_FALSE(CircularIntervalsIntersect(0.0, 1.0, 1.5, 2.0));
}

TEST(CircularIntervalsIntersectTest, WrapAroundOverlap) {
  // [3.0, 3.5] wraps past pi; modulo 2pi it covers [-pi, 3.5-2pi] around
  // -3.0.
  EXPECT_TRUE(CircularIntervalsIntersect(3.0, 3.5, -3.2, -3.1));
  EXPECT_FALSE(CircularIntervalsIntersect(3.0, 3.1, -1.0, 0.0));
}

TEST(CircularIntervalsIntersectTest, FullCircleAlwaysIntersects) {
  EXPECT_TRUE(CircularIntervalsIntersect(-kPi, kPi, 17.0, 17.1));
  EXPECT_TRUE(CircularIntervalsIntersect(0.0, 7.0, 100.0, 100.0));
}

TEST(CircularIntervalsIntersectTest, AgreesWithDenseSampling) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    const double a_lo = rng.Uniform(-2.0 * kPi, 2.0 * kPi);
    const double a_hi = a_lo + rng.Uniform(0.0, 2.0);
    const double b_lo = rng.Uniform(-2.0 * kPi, 2.0 * kPi);
    const double b_hi = b_lo + rng.Uniform(0.0, 2.0);
    // Exact reference: [a_lo, a_hi] meets [b_lo + 2 pi k, b_hi + 2 pi k] for
    // some integer shift k (widths here are < 2 pi, so |k| <= 2 suffices).
    bool expected = false;
    for (int k = -2; k <= 2 && !expected; ++k) {
      const double lo = b_lo + 2.0 * kPi * k;
      const double hi = b_hi + 2.0 * kPi * k;
      expected = !(a_lo > hi || lo > a_hi);
    }
    const bool actual = CircularIntervalsIntersect(a_lo, a_hi, b_lo, b_hi);
    EXPECT_EQ(actual, expected)
        << "[" << a_lo << "," << a_hi << "] vs [" << b_lo << "," << b_hi
        << "]";
  }
}

TEST(TransformMbrTest, SingletonMbrIsThePointTransform) {
  const FeatureLayout layout = NoStatsLayout();
  const std::size_t n = 128;
  const FeatureTransform ft =
      MovingAverageTransform(n, 10).ToFeatureTransform(layout);
  const TransformMbr mbr(std::span<const FeatureTransform>(&ft, 1), layout);
  EXPECT_EQ(mbr.transform_count(), 1u);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> lo(layout.dimensions()), hi(layout.dimensions());
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      const double a = rng.Uniform(-2.0, 2.0);
      const double b = rng.Uniform(-2.0, 2.0);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const rstar::Rect rect(lo, hi);
    const rstar::Rect via_mbr = mbr.Apply(rect);
    const rstar::Rect via_point = ft.Apply(rect);
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      EXPECT_NEAR(via_mbr.low(d), via_point.low(d), 1e-9);
      EXPECT_NEAR(via_mbr.high(d), via_point.high(d), 1e-9);
    }
  }
}

TEST(TransformMbrTest, Figure3MultAndAddMbr) {
  // Fig. 3: for MV 1..40 at the second coefficient, the mult-MBR magnitudes
  // span ~[0.84, 1] with angle-scale pinned at 1, and the add-MBR has
  // magnitude offset 0 with angle offsets in ~[-0.96, 0].
  const std::size_t n = 128;
  const FeatureLayout layout = NoStatsLayout();
  std::vector<FeatureTransform> fts;
  for (const auto& t : MovingAverageRange(n, 1, 40)) {
    fts.push_back(t.ToFeatureTransform(layout));
  }
  const TransformMbr mbr(fts, layout);
  const std::size_t md = layout.magnitude_dimension(0);
  const std::size_t ad = layout.angle_dimension(0);
  EXPECT_NEAR(mbr.mult_high(md), 1.0, 1e-9);
  EXPECT_GT(mbr.mult_low(md), 0.84);
  EXPECT_EQ(mbr.mult_low(ad), 1.0);
  EXPECT_EQ(mbr.mult_high(ad), 1.0);
  EXPECT_EQ(mbr.add_low(md), 0.0);
  EXPECT_EQ(mbr.add_high(md), 0.0);
  EXPECT_NEAR(mbr.add_high(ad), 0.0, 1e-9);
  EXPECT_GT(mbr.add_low(ad), -0.96);
}

TEST(TransformMbrTest, Equation12ContainmentProperty) {
  // The heart of Lemma 1: for every x in X and t in the MBR,
  // t(x) lies inside Apply(X).
  Rng rng(4);
  const FeatureLayout layout = NoStatsLayout();
  const std::size_t n = 128;
  const auto spectral = MovingAverageRange(n, 5, 25);
  std::vector<FeatureTransform> fts;
  for (const auto& t : spectral) fts.push_back(t.ToFeatureTransform(layout));
  const TransformMbr mbr(fts, layout);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> lo(layout.dimensions()), hi(layout.dimensions());
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      const bool angle = layout.is_angle_dimension(d);
      const double a = angle ? rng.Uniform(-kPi, kPi) : rng.Uniform(0.0, 3.0);
      const double b = angle ? rng.Uniform(-kPi, kPi) : rng.Uniform(0.0, 3.0);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const rstar::Rect data(lo, hi);
    const rstar::Rect image = mbr.Apply(data);
    // Random point in the data rect, random transform from the set.
    rstar::Point x(layout.dimensions());
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      x[d] = rng.Uniform(lo[d], hi[d]);
    }
    const FeatureTransform& t =
        fts[rng.UniformInt(0, static_cast<std::int64_t>(fts.size()) - 1)];
    const rstar::Point tx = t.Apply(x);
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      if (layout.is_angle_dimension(d)) {
        // Containment modulo 2pi.
        const double width = image.high(d) - image.low(d);
        double rel = std::remainder(tx[d] - image.low(d), 2.0 * kPi);
        if (rel < 0.0) rel += 2.0 * kPi;
        EXPECT_LE(rel, width + 1e-9) << "angle dim " << d;
      } else {
        EXPECT_GE(tx[d], image.low(d) - 1e-9);
        EXPECT_LE(tx[d], image.high(d) + 1e-9);
      }
    }
  }
}

TEST(TransformMbrTest, CoversMembersAndRejectsOutsiders) {
  const FeatureLayout layout = NoStatsLayout();
  const std::size_t n = 128;
  const auto spectral = MovingAverageRange(n, 5, 15);
  std::vector<FeatureTransform> fts;
  for (const auto& t : spectral) fts.push_back(t.ToFeatureTransform(layout));
  const TransformMbr mbr(fts, layout);
  for (const FeatureTransform& t : fts) {
    EXPECT_TRUE(mbr.Covers(t));
  }
  // A 40-day MA lies outside the 5..15 MBR (smaller magnitude multiplier).
  EXPECT_FALSE(mbr.Covers(
      MovingAverageTransform(n, 40).ToFeatureTransform(layout)));
}

TEST(TransformMbrTest, WrappingAngleClusterStaysTight) {
  // Shifts whose angle offsets straddle the -pi/pi seam: the circular
  // interval must be narrow, not nearly 2 pi wide.
  const FeatureLayout layout = NoStatsLayout();
  const std::size_t n = 16;
  // shift s: angle at f=1 is -2 pi s/16; s=7 -> -2.75, s=9 -> -3.53 == 2.75.
  std::vector<FeatureTransform> fts = {
      ShiftTransform(n, 7).ToFeatureTransform(layout),
      ShiftTransform(n, 9).ToFeatureTransform(layout)};
  const TransformMbr mbr(fts, layout);
  const std::size_t ad = layout.angle_dimension(0);
  EXPECT_LT(mbr.add_high(ad) - mbr.add_low(ad), 1.0);
  EXPECT_TRUE(mbr.Covers(fts[0]));
  EXPECT_TRUE(mbr.Covers(fts[1]));
}

TEST(TransformMbrTest, AppliedIntersectsMatchesApplyPlusIntersect) {
  // The fused hot-path test must agree with the compositional one on random
  // rect pairs, including angle wrap-around.
  Rng rng(99);
  const FeatureLayout layout = NoStatsLayout();
  const std::size_t n = 128;
  std::vector<FeatureTransform> fts;
  for (const auto& t : MovingAverageRange(n, 3, 20)) {
    fts.push_back(t.ToFeatureTransform(layout));
  }
  for (const auto& t : ShiftRange(n, 50, 70)) {  // wide angle offsets
    fts.push_back(t.ToFeatureTransform(layout));
  }
  const TransformMbr mbr(fts, layout);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> dlo(layout.dimensions()), dhi(layout.dimensions());
    std::vector<double> qlo(layout.dimensions()), qhi(layout.dimensions());
    for (std::size_t d = 0; d < layout.dimensions(); ++d) {
      const bool angle = layout.is_angle_dimension(d);
      const double base = angle ? kPi : 4.0;
      double a = rng.Uniform(-base, base);
      double b = rng.Uniform(-base, base);
      dlo[d] = std::min(a, b);
      dhi[d] = std::max(a, b);
      a = rng.Uniform(-base, base);
      b = rng.Uniform(-base, base);
      qlo[d] = std::min(a, b);
      qhi[d] = std::max(a, b);
    }
    const rstar::Rect data(dlo, dhi), query(qlo, qhi);
    EXPECT_EQ(mbr.AppliedIntersects(data, query),
              CircularIntersects(mbr.Apply(data), query, layout))
        << "trial " << trial;
  }
}

TEST(CircularIntersectsTest, MixesLinearAndAngularDims) {
  FeatureLayout layout;
  layout.include_mean_std = false;
  layout.num_coefficients = 1;  // dims: [magnitude, angle]
  // Rects overlap in angle only modulo 2pi.
  const rstar::Rect a({1.0, 3.0}, {2.0, 3.3});
  const rstar::Rect b({1.5, -3.2}, {3.0, -3.1});
  EXPECT_TRUE(CircularIntersects(a, b, layout));
  // Same angles but disjoint magnitudes: no intersection.
  const rstar::Rect c({5.0, -3.2}, {6.0, -3.1});
  EXPECT_FALSE(CircularIntersects(a, c, layout));
}

}  // namespace
}  // namespace tsq::transform
