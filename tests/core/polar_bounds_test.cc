#include "core/polar_bounds.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "core/feature.h"
#include "gtest/gtest.h"
#include "transform/builders.h"

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

// `r` in `within`'s prepared form.
std::vector<double> Prepared(const RectPairWithin& within,
                             const rstar::Rect& r) {
  std::vector<double> out(within.prepared_size());
  within.Prepare(r, out.data());
  return out;
}

TEST(RectBoundsTest, WithinAgreesWithLowerBound) {
  Rng rng(4);
  transform::FeatureLayout layout;
  layout.num_coefficients = 3;
  const double inf = std::numeric_limits<double>::infinity();
  int early = 0;  // pairs the magnitude sum alone rejects at bound = exact/2
  int first_term_exits = 0;  // decisions the first coefficient's term ends
  int far_centres = 0;       // coefficients whose centres are > 2 pi apart
  int full_circles = 0;      // coefficients whose widths cover the circle
  for (int trial = 0; trial < 3000; ++trial) {
    rstar::Rect a = RandomPolarRect(rng, layout);
    rstar::Rect b = RandomPolarRect(rng, layout);
    for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
      const std::size_t md = layout.magnitude_dimension(i);
      const std::size_t ad = layout.angle_dimension(i);
      if (trial % 4 == 0) {
        // Just past a's corner in every coefficient, at an angle so small
        // that cos rounds to 1: where rounding could push the full bound
        // below the magnitude sum.
        const double mag = a.high(md) * (1.0 + rng.Uniform(1e-9, 1e-6));
        const double angle = a.high(ad) + rng.Uniform(1e-12, 1e-8);
        b.set_low(md, mag);
        b.set_high(md, mag);
        b.set_low(ad, angle);
        b.set_high(ad, angle);
      } else if (trial % 4 == 1) {
        // b's angles some whole turns (and a bit) away: the separation of
        // the centres exceeds 2 pi, so it takes std::remainder's branch.
        const double turns = 2.0 * kPi * static_cast<double>(1 + trial % 3);
        const double shift =
            (trial % 8 == 1 ? 1.0 : -1.0) * (turns + rng.Uniform(0.0, 3.0));
        b.set_low(ad, a.low(ad) + shift);
        b.set_high(ad, b.low(ad) + rng.Uniform(0.0, 0.5));
      } else if (trial % 4 == 2 && i == 0) {
        // Widths that together cover the circle, or just fall short of it.
        a.set_high(ad, a.low(ad) + rng.Uniform(kPi, 2.0 * kPi));
        b.set_high(ad, b.low(ad) + (2.0 * kPi - (a.high(ad) - a.low(ad))) +
                           rng.Uniform(-1e-9, 1.0));
      }
      const double widths = (a.high(ad) - a.low(ad)) + (b.high(ad) - b.low(ad));
      const double centres =
          0.5 * (b.low(ad) + b.high(ad)) - 0.5 * (a.low(ad) + a.high(ad));
      if (widths >= 2.0 * kPi) {
        ++full_circles;
      } else if (std::fabs(centres) > 2.0 * kPi) {
        ++far_centres;
      }
    }
    const double exact = RectPairSquaredDistanceLowerBound(a, b, layout);
    const double exact_ba = RectPairSquaredDistanceLowerBound(b, a, layout);
    double magnitudes = 0.0;
    for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
      const std::size_t md = layout.magnitude_dimension(i);
      const double gap =
          std::max({0.0, a.low(md) - b.high(md), b.low(md) - a.high(md)});
      magnitudes += layout.coefficient_weight() * (gap * gap);
    }
    const std::size_t md0 = layout.magnitude_dimension(0);
    const std::size_t ad0 = layout.angle_dimension(0);
    const double first_term =
        layout.coefficient_weight() *
        PolarBoxMinSquaredDistance(a.low(md0), a.high(md0), a.low(ad0),
                                   a.high(ad0), b.low(md0), b.high(md0),
                                   b.low(ad0), b.high(ad0));
    EXPECT_LE(magnitudes, exact);
    if (magnitudes > exact / 2) ++early;
    for (const double bound :
         {exact, std::nextafter(exact, -inf), std::nextafter(exact, inf),
          magnitudes, std::nextafter(magnitudes, -inf), exact / 2, 2 * exact,
          first_term, std::nextafter(first_term, -inf), 0.0,
          rng.Uniform(0.0, 2.0 * exact + 1.0)}) {
      const RectPairWithin within(layout, bound);
      const std::vector<double> pa = Prepared(within, a);
      const std::vector<double> pb = Prepared(within, b);
      EXPECT_EQ(within(pa.data(), pb.data()), exact <= bound)
          << "trial " << trial << " bound " << bound << " exact " << exact;
      EXPECT_EQ(within(pb.data(), pa.data()), exact_ba <= bound)
          << "trial " << trial << " bound " << bound << " exact " << exact_ba;
      if (magnitudes <= bound && first_term > bound) ++first_term_exits;
    }
  }
  EXPECT_GT(early, 100);
  EXPECT_GT(first_term_exits, 100);
  EXPECT_GT(far_centres, 500);
  EXPECT_GT(full_circles, 300);
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

// --- PolarBound: the feature-level bound between filter and fetch --------

using transform::SpectralTransform;

// A random spectrum of a real, zero-mean sequence of length n: X_0 = 0,
// X_{n-f} = conj(X_f), X_{n/2} real.
std::vector<dft::Complex> RandomHermitian(Rng& rng, std::size_t n) {
  std::vector<dft::Complex> x(n);
  for (std::size_t f = 1; 2 * f <= n; ++f) {
    x[f] = {rng.Uniform(-3.0, 3.0), 2 * f == n ? 0.0 : rng.Uniform(-3.0, 3.0)};
    x[n - f] = std::conj(x[f]);
  }
  return x;
}

// Sets coefficient f (and its mirror) of a Hermitian spectrum.
void SetCoefficient(std::vector<dft::Complex>& x, std::size_t f,
                    dft::Complex value) {
  x[f] = value;
  x[x.size() - f] = std::conj(value);
}

double KernelDistance(const SpectralTransform& t, TransformTarget target,
                      const std::vector<dft::Complex>& x,
                      const std::vector<dft::Complex>& q) {
  return target == TransformTarget::kBoth
             ? t.TransformedSquaredDistance(x, q)
             : t.TransformedToPlainSquaredDistance(x, q);
}

// The real-preserving transformations a group is drawn from: the moving
// averages and momentum/shift pipelines of the paper's examples, plus
// scaling, inversion and smoothing filters.
std::vector<SpectralTransform> TransformMenu(std::size_t n) {
  std::vector<SpectralTransform> menu;
  for (std::size_t w = 1; w <= std::min<std::size_t>(n, 9); w += 2) {
    menu.push_back(transform::MovingAverageTransform(n, w));
  }
  for (std::size_t s = 0; s < std::min<std::size_t>(n, 6); ++s) {
    menu.push_back(transform::MomentumTransform(n).Compose(
        transform::ShiftTransform(n, s)));
    menu.push_back(transform::ShiftTransform(n, 2 * s + 1));
  }
  menu.push_back(transform::ScaleTransform(n, 2.5));
  menu.push_back(transform::InvertTransform(n));
  menu.push_back(transform::ExponentialMovingAverageTransform(n, 0.25));
  menu.push_back(transform::SecondDifferenceTransform(n));
  return menu;
}

// The property over >= 3000 random (candidate, query, group) triples, on
// the indexed coefficients of their spectra: for every transformation t of
// the group, the single-t bound never exceeds the kernel's exact Eq. 12
// distance, nor does a single-t pair bound prune at one ulp above it, the
// group bound never exceeds the best t, and no eps2 that admits a kernel
// match prunes the candidate. Triples mix
// both targets, queries with and without a query transformation, layouts
// with and without symmetry, angles on either side of +-pi and
// near-duplicates whose whole distance sits in the indexed coefficients,
// where the bound is tight and only its margin keeps rounding from pruning
// a match.
TEST(PolarBoundTest, NeverExceedsTheKernelAndNeverPrunesAMatch) {
  Rng rng(2024);
  constexpr double kPi = std::numbers::pi;
  const double inf = std::numeric_limits<double>::infinity();
  int triples = 0, pruned = 0, near_duplicates = 0, wrapped = 0;
  for (int trial = 0; trial < 3200; ++trial) {
    const std::size_t n = std::size_t{16} << rng.UniformInt(0, 2);
    transform::FeatureLayout layout;
    layout.num_coefficients = static_cast<std::size_t>(rng.UniformInt(1, 3));
    layout.include_mean_std = rng.Bernoulli(0.7);
    layout.use_symmetry = rng.Bernoulli(0.8);
    const std::vector<SpectralTransform> menu = TransformMenu(n);
    std::vector<std::size_t> group;
    const std::size_t group_size =
        static_cast<std::size_t>(rng.UniformInt(1, 6));
    for (std::size_t g = 0; g < group_size; ++g) {
      group.push_back(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(menu.size()) - 1)));
    }
    const TransformTarget target = rng.Bernoulli(0.5)
                                       ? TransformTarget::kBoth
                                       : TransformTarget::kDataOnly;

    std::vector<dft::Complex> q = RandomHermitian(rng, n);
    if (rng.Bernoulli(0.4)) {
      // A query transformation, applied as PrepareQuery applies it.
      q = menu[static_cast<std::size_t>(rng.UniformInt(
                   0, static_cast<std::int64_t>(menu.size()) - 1))]
              .ApplyToSpectrum(q);
    }
    std::vector<dft::Complex> x = RandomHermitian(rng, n);
    const int shape = static_cast<int>(rng.UniformInt(0, 2));
    if (shape == 1) {
      // Near-duplicate: x equals the query's image under one t of the group
      // except for a tiny change in the indexed coefficients.
      ++near_duplicates;
      const SpectralTransform& t = menu[group.front()];
      for (std::size_t f = 1; 2 * f <= n; ++f) {
        const dft::Complex m = t.multiplier(f);
        SetCoefficient(x, f,
                       target == TransformTarget::kDataOnly &&
                               std::abs(m) > 1e-3
                           ? q[f] / m
                           : q[f]);
      }
      const double scale = std::pow(10.0, rng.Uniform(-12.0, -3.0));
      for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
        const std::size_t f = layout.coefficient(i);
        SetCoefficient(x, f,
                       x[f] + dft::Complex(rng.Uniform(-scale, scale),
                                           rng.Uniform(-scale, scale)));
      }
    } else if (shape == 2) {
      // Angles straddling +-pi, as close as a few ulps.
      ++wrapped;
      for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
        const std::size_t f = layout.coefficient(i);
        const double gap = std::pow(10.0, rng.Uniform(-15.0, -1.0));
        const double mag = rng.Uniform(0.1, 3.0);
        SetCoefficient(x, f, std::polar(mag, kPi - gap));
        SetCoefficient(q, f,
                       std::polar(mag * (1.0 + rng.Uniform(-gap, gap)),
                                  -kPi + rng.Uniform(0.0, gap)));
      }
    }
    const std::vector<dft::Complex> cx = IndexedCoefficients(x, layout);
    const std::vector<dft::Complex> cq = IndexedCoefficients(q, layout);
    const PolarBound bound(layout, menu, group, target, cq);

    double best = inf;
    for (const std::size_t t : group) {
      const double kernel = KernelDistance(menu[t], target, x, q);
      best = std::min(best, kernel);
      const std::vector<std::size_t> single = {t};
      EXPECT_LE(PolarBound(layout, menu, single, target, cq).Min(cx), kernel)
          << "trial " << trial << " transform " << menu[t].label();
      if (target == TransformTarget::kBoth) {
        EXPECT_FALSE(PolarBound(layout, menu, single, target, {})
                         .PrunesPair(cx, cq, std::nextafter(kernel, inf)))
            << "trial " << trial << " transform " << menu[t].label();
      }
    }
    EXPECT_LE(bound.Min(cx), best) << "trial " << trial;
    // Every eps2 that admits the best transformation's kernel distance
    // keeps the candidate, down to the smallest such eps2.
    for (const double eps2 : {std::nextafter(best, inf), best * (1.0 + 1e-12),
                              best * 2.0 + 1e-300}) {
      EXPECT_FALSE(bound.Prunes(cx, eps2))
          << "trial " << trial << " kernel " << best << " eps2 " << eps2
          << " bound " << bound.Min(cx);
      if (target == TransformTarget::kBoth) {
        EXPECT_FALSE(PolarBound(layout, menu, group, target, {})
                         .PrunesPair(cx, cq, eps2))
            << "trial " << trial;
      }
    }
    if (bound.Prunes(cx, best / 4)) ++pruned;
    ++triples;
  }
  EXPECT_GE(triples, 3000);
  EXPECT_GT(near_duplicates, 800);
  EXPECT_GT(wrapped, 800);
  // Not vacuous, though random spectra spread their distance over every
  // coefficient and leave the indexed few a small share of it.
  EXPECT_GT(pruned, triples / 20);
}

TEST(PolarBoundTest, WeightsMultipliersAndTargetsExactly) {
  // Length 16, default layout (f = 1, 2, weight 2). x and q differ only in
  // coefficient 1, so each LB_t is exactly twice that coefficient's term.
  const std::size_t n = 16;
  transform::FeatureLayout layout;
  std::vector<dft::Complex> x(n), q(n);
  SetCoefficient(x, 1, {3.0, 0.0});
  SetCoefficient(q, 1, {0.0, 4.0});
  SetCoefficient(x, 2, {1.0, 1.0});
  SetCoefficient(q, 2, {1.0, 1.0});
  const std::vector<SpectralTransform> transforms = {
      SpectralTransform::Identity(n), transform::ScaleTransform(n, 2.0),
      transform::ShiftTransform(n, 4)};
  const std::vector<dft::Complex> cx = IndexedCoefficients(x, layout);
  const auto min_of = [&](std::vector<std::size_t> group,
                          TransformTarget target) {
    return PolarBound(layout, transforms, group, target,
                      IndexedCoefficients(q, layout))
        .Min(cx);
  };
  // kBoth: 2 * |M_1|^2 * |3 - 4i|^2 = 50 |M_1|^2.
  EXPECT_NEAR(min_of({0}, TransformTarget::kBoth), 50.0, 1e-9);
  EXPECT_NEAR(min_of({1}, TransformTarget::kBoth), 200.0, 1e-9);
  EXPECT_NEAR(min_of({1, 0}, TransformTarget::kBoth), 50.0, 1e-9);
  // kDataOnly: a shift by 4 of 16 turns X_1 by a quarter and X_2 by half a
  // turn before they meet Q_1 and Q_2.
  const dft::Complex m1 = transforms[2].multiplier(1);
  const dft::Complex m2 = transforms[2].multiplier(2);
  EXPECT_NEAR(std::abs(m1.real()), 0.0, 1e-12);
  EXPECT_NEAR(m2.real(), -1.0, 1e-12);
  EXPECT_NEAR(min_of({2}, TransformTarget::kDataOnly),
              2.0 * (std::norm(m1 * x[1] - q[1]) + std::norm(m2 * x[2] - q[2])),
              1e-9);
  // Both match the kernel, whose other coefficients are all zero.
  EXPECT_NEAR(min_of({2}, TransformTarget::kDataOnly),
              transforms[2].TransformedToPlainSquaredDistance(x, q), 1e-9);
  EXPECT_NEAR(min_of({0}, TransformTarget::kBoth),
              transforms[0].TransformedSquaredDistance(x, q), 1e-9);
  // Without symmetry each indexed coefficient counts once.
  transform::FeatureLayout plain = layout;
  plain.use_symmetry = false;
  EXPECT_NEAR(PolarBound(plain, transforms, std::vector<std::size_t>{0},
                         TransformTarget::kBoth, IndexedCoefficients(q, plain))
                  .Min(IndexedCoefficients(x, plain)),
              25.0, 1e-9);
}

TEST(PolarBoundTest, PrunesOnlyAboveTheMargin) {
  const std::size_t n = 16;
  transform::FeatureLayout layout;
  std::vector<dft::Complex> x(n), q(n);
  SetCoefficient(x, 1, {1.0, 0.0});  // LB = 2 * |1 - 0|^2 = 2 (identity)
  const std::vector<SpectralTransform> transforms = {
      SpectralTransform::Identity(n)};
  const PolarBound bound(layout, transforms, std::vector<std::size_t>{0},
                         TransformTarget::kBoth,
                         IndexedCoefficients(q, layout));
  const std::vector<dft::Complex> cx = IndexedCoefficients(x, layout);
  EXPECT_TRUE(bound.Prunes(cx, 1.9));
  EXPECT_FALSE(bound.Prunes(cx, 2.0));
  // Within the relative margin of eps^2 the candidate is kept.
  EXPECT_FALSE(bound.Prunes(cx, 2.0 * (1.0 - 1e-10)));
  EXPECT_TRUE(bound.Prunes(cx, 2.0 * (1.0 - 1e-6)));
}

// AppendAdmitSets against the single-transformation bounds: over random
// (candidate, query) pairs, both targets, layouts with and without symmetry,
// and groups of up to 70 transformations (two admit words), bit i is set
// exactly when the i-th transformation's own bound admits the candidate, and
// the group's Prunes is true exactly when no bit is set. The bits, Min and
// Prunes share their arithmetic, so the thresholds sit anywhere: a random
// cut through the per-t values, and each per-t value with one ulp on either
// side of it. Candidates go in batches of three (x, the query itself, x
// again), so every batch has at least one admitted candidate and the words
// of each land in order. Some candidates equal the query in every indexed
// coefficient but one, and some groups take their least weight w |M_f|^2
// at different coefficients from different transformations (the menu's
// scale, EMA and second-difference filters against its moving averages and
// momentum): there the screen must put the greatest weight on its rounding
// allowance, or it prunes what some t admits at that t's own value.
TEST(PolarBoundTest, AppendAdmitSetsMatchesEachTransformationsBound) {
  Rng rng(77);
  Rng shape_rng(78);  // the partial duplicates, apart from rng's stream
  constexpr std::uint64_t kSentinel = 0xdeadbeefull;
  const double inf = std::numeric_limits<double>::infinity();
  int admitted = 0, rejected = 0, rejected_both = 0;
  int mixed_groups = 0, partial_duplicates = 0, thresholds = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 32;
    transform::FeatureLayout layout;
    layout.num_coefficients = static_cast<std::size_t>(rng.UniformInt(1, 3));
    layout.include_mean_std = rng.Bernoulli(0.5);
    layout.use_symmetry = rng.Bernoulli(0.7);
    const std::size_t c = layout.num_coefficients;
    const std::vector<SpectralTransform> menu = TransformMenu(n);
    const std::size_t group_size =
        trial % 5 == 0 ? 70 : static_cast<std::size_t>(rng.UniformInt(1, 8));
    std::vector<std::size_t> group;
    for (std::size_t g = 0; g < group_size; ++g) {
      group.push_back(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(menu.size()) - 1)));
    }
    const TransformTarget target = rng.Bernoulli(0.5)
                                       ? TransformTarget::kBoth
                                       : TransformTarget::kDataOnly;
    const std::vector<dft::Complex> q = RandomHermitian(rng, n);
    std::vector<dft::Complex> x = RandomHermitian(rng, n);
    if (rng.Bernoulli(0.5)) {
      // Near the query, so that some transformations admit it.
      for (std::size_t f = 1; 2 * f < n; ++f) {
        SetCoefficient(x, f, q[f] + dft::Complex(rng.Uniform(-0.3, 0.3),
                                                 rng.Uniform(-0.3, 0.3)));
      }
    } else if (c >= 2 && shape_rng.Bernoulli(0.5)) {
      // The query's indexed coefficients but one, which is off by up to
      // 1e-6..1e-2: LB_t is positive and small, and the allowance of the
      // equal coefficients decides the screen near it.
      ++partial_duplicates;
      const std::size_t off = static_cast<std::size_t>(
          shape_rng.UniformInt(0, static_cast<std::int64_t>(c) - 1));
      const double scale = std::pow(10.0, shape_rng.Uniform(-6.0, -2.0));
      for (std::size_t i = 0; i < c; ++i) {
        const std::size_t f = layout.coefficient(i);
        SetCoefficient(x, f,
                       i != off ? q[f]
                                : q[f] + dft::Complex(
                                             shape_rng.Uniform(-scale, scale),
                                             shape_rng.Uniform(-scale, scale)));
      }
    }
    const std::vector<dft::Complex> cq = IndexedCoefficients(q, layout);
    const std::vector<dft::Complex> cx = IndexedCoefficients(x, layout);

    if (target == TransformTarget::kBoth) {
      // Mixed: no transformation of the group has the least weight at
      // every indexed coefficient.
      std::vector<double> least(c, inf);
      for (const std::size_t t : group) {
        for (std::size_t i = 0; i < c; ++i) {
          least[i] = std::min(
              least[i], menu[t].squared_magnitudes()[layout.coefficient(i)]);
        }
      }
      mixed_groups += std::none_of(group.begin(), group.end(), [&](auto t) {
        for (std::size_t i = 0; i < c; ++i) {
          if (menu[t].squared_magnitudes()[layout.coefficient(i)] !=
              least[i]) {
            return false;
          }
        }
        return true;
      });
    }

    std::vector<double> values;
    // The query against itself: LB_t = 0 for every t under kBoth; under
    // kDataOnly only for the transformations that fix its coefficients.
    std::vector<double> self_values;
    for (const std::size_t t : group) {
      const PolarBound single(layout, menu, std::vector<std::size_t>{t},
                              target, cq);
      values.push_back(single.Min(cx));
      self_values.push_back(single.Min(cq));
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(sorted.size())));
    std::vector<double> eps2s = {
        cut == 0               ? 0.5 * sorted.front()
        : cut == sorted.size() ? 2.0 * sorted.back() + 1.0
                               : 0.5 * (sorted[cut - 1] + sorted[cut])};
    for (const double v : values) {
      for (const double eps2 :
           {std::nextafter(v, -inf), v, std::nextafter(v, inf)}) {
        if (eps2 >= 0.0) eps2s.push_back(eps2);
      }
    }

    const PolarBound bound(layout, menu, group, target, cq);
    std::vector<dft::Complex> xs = cx;
    xs.insert(xs.end(), cq.begin(), cq.end());
    xs.insert(xs.end(), cx.begin(), cx.end());
    const std::size_t words = (group.size() + 63) / 64;
    for (const double eps2 : eps2s) {
      ++thresholds;
      std::vector<std::uint64_t> out = {kSentinel};
      const std::size_t appended = bound.AppendAdmitSets(xs, 3, eps2, &out);
      const double threshold = eps2 * (1.0 + PolarBound::kRelativeMargin);
      std::vector<std::uint64_t> want = {kSentinel};
      std::vector<bool> none;  // per candidate: no bit set
      for (const std::vector<double>* v : {&values, &self_values, &values}) {
        std::vector<std::uint64_t> set(words, 0);
        for (std::size_t i = 0; i < v->size(); ++i) {
          if ((*v)[i] <= threshold) set[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        none.push_back(std::all_of(set.begin(), set.end(),
                                   [](std::uint64_t w) { return w == 0; }));
        if (!none.back()) want.insert(want.end(), set.begin(), set.end());
      }
      EXPECT_EQ(out, want) << "trial " << trial << " eps2 " << eps2;
      EXPECT_EQ(appended, (want.size() - 1) / words) << "trial " << trial;
      EXPECT_EQ(bound.Prunes(cx, eps2), none[0])
          << "trial " << trial << " eps2 " << eps2;
      EXPECT_EQ(bound.Prunes(cq, eps2), none[1])
          << "trial " << trial << " eps2 " << eps2;
    }
    const double threshold =
        eps2s.front() * (1.0 + PolarBound::kRelativeMargin);
    const bool x_admitted = std::any_of(
        values.begin(), values.end(), [&](double v) { return v <= threshold; });
    ++(x_admitted ? admitted : rejected);
    rejected_both += !x_admitted && target == TransformTarget::kBoth ? 1 : 0;
  }
  EXPECT_GT(admitted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(rejected_both, 30);
  EXPECT_GT(mixed_groups, 30);
  EXPECT_GT(partial_duplicates, 30);
  EXPECT_GT(thresholds, 10000);
}

}  // namespace
}  // namespace tsq::core
