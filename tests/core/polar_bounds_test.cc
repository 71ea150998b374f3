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
#include "ts/normal_form.h"

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

rstar::Point FeaturesOf(const std::vector<dft::Complex>& spectrum,
                        const transform::FeatureLayout& layout) {
  ts::NormalForm normal;
  normal.values.assign(spectrum.size(), 0.0);
  return ExtractFeatures(normal, spectrum, layout);
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

// The property over >= 3000 random (candidate, query, group) triples: for
// every transformation t of the group, the single-t bound never exceeds the
// kernel's exact Eq. 12 distance, the group bound never exceeds the best t,
// and no eps2 that admits a kernel match prunes the candidate. Triples mix
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
    const rstar::Point fx = FeaturesOf(x, layout);
    const rstar::Point fq = FeaturesOf(q, layout);
    const PolarBound bound(layout, menu, group, target, fq);

    double best = inf;
    for (const std::size_t t : group) {
      const double kernel = KernelDistance(menu[t], target, x, q);
      best = std::min(best, kernel);
      const std::vector<std::size_t> single = {t};
      EXPECT_LE(PolarBound(layout, menu, single, target, fq).Min(fx), kernel)
          << "trial " << trial << " transform " << menu[t].label();
      if (target == TransformTarget::kBoth) {
        EXPECT_LE(PolarBound(layout, menu, single, target, {}).MinPair(fx, fq),
                  kernel)
            << "trial " << trial << " transform " << menu[t].label();
      }
    }
    EXPECT_LE(bound.Min(fx), best) << "trial " << trial;
    // Every eps2 that admits the best transformation's kernel distance
    // keeps the candidate, down to the smallest such eps2.
    for (const double eps2 : {std::nextafter(best, inf), best * (1.0 + 1e-12),
                              best * 2.0 + 1e-300}) {
      EXPECT_FALSE(bound.Prunes(fx, eps2))
          << "trial " << trial << " kernel " << best << " eps2 " << eps2
          << " bound " << bound.Min(fx);
      if (target == TransformTarget::kBoth) {
        EXPECT_FALSE(PolarBound(layout, menu, group, target, {})
                         .PrunesPair(fx, fq, eps2))
            << "trial " << trial;
      }
    }
    if (bound.Prunes(fx, best / 4)) ++pruned;
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
  const rstar::Point fx = FeaturesOf(x, layout);
  const auto min_of = [&](std::vector<std::size_t> group,
                          TransformTarget target) {
    return PolarBound(layout, transforms, group, target, FeaturesOf(q, layout))
        .Min(fx);
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
                         TransformTarget::kBoth, FeaturesOf(q, plain))
                  .Min(FeaturesOf(x, plain)),
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
                         TransformTarget::kBoth, FeaturesOf(q, layout));
  const rstar::Point fx = FeaturesOf(x, layout);
  EXPECT_TRUE(bound.Prunes(fx, 1.9));
  EXPECT_FALSE(bound.Prunes(fx, 2.0));
  // Within the relative margin of eps^2 the candidate is kept.
  EXPECT_FALSE(bound.Prunes(fx, 2.0 * (1.0 - 1e-10)));
  EXPECT_TRUE(bound.Prunes(fx, 2.0 * (1.0 - 1e-6)));
}

// AppendAdmitSets against the single-transformation bounds: over random
// (candidate, query) pairs, both targets, layouts with and without symmetry,
// and groups of up to 70 transformations (two admit words), bit i is set
// exactly when the i-th transformation's own bound admits the candidate.
// Thresholds sit between distinct per-t values: the cartesian terms may
// differ from Min's polar ones in the last ulps. Candidates go in batches
// of three (x, the query itself, x again), so every batch has at least one
// admitted candidate and the words of each land in order.
TEST(PolarBoundTest, AppendAdmitSetsMatchesEachTransformationsBound) {
  Rng rng(77);
  constexpr std::uint64_t kSentinel = 0xdeadbeefull;
  int admitted = 0, rejected = 0, rejected_both = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 32;
    transform::FeatureLayout layout;
    layout.num_coefficients = static_cast<std::size_t>(rng.UniformInt(1, 3));
    layout.include_mean_std = rng.Bernoulli(0.5);
    layout.use_symmetry = rng.Bernoulli(0.7);
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
    }
    const rstar::Point fq = FeaturesOf(q, layout);
    const rstar::Point fx = FeaturesOf(x, layout);

    std::vector<double> values;
    for (const std::size_t t : group) {
      values.push_back(PolarBound(layout, menu, std::vector<std::size_t>{t},
                                  target, fq)
                           .Min(fx));
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(sorted.size())));
    double eps2 = 0.0;
    if (cut == 0) {
      eps2 = 0.5 * sorted.front();
      if (sorted.front() < 1e-6) continue;
    } else if (cut == sorted.size()) {
      eps2 = 2.0 * sorted.back() + 1.0;
    } else {
      if (sorted[cut] - sorted[cut - 1] < 1e-6 * (1.0 + sorted[cut])) continue;
      eps2 = 0.5 * (sorted[cut - 1] + sorted[cut]);
    }
    // The query against itself: LB_t = 0 for every t under kBoth; under
    // kDataOnly only for the transformations that fix its coefficients.
    std::vector<double> self_values;
    for (const std::size_t t : group) {
      self_values.push_back(PolarBound(layout, menu,
                                       std::vector<std::size_t>{t}, target,
                                       fq)
                                .Min(fq));
    }

    const PolarBound bound(layout, menu, group, target, fq);
    const std::size_t c = layout.num_coefficients;
    std::vector<dft::Complex> xs(3 * c);
    PolarBound::ToCartesian(layout, fx, std::span(xs).first(c));
    PolarBound::ToCartesian(layout, fq, std::span(xs).subspan(c, c));
    PolarBound::ToCartesian(layout, fx, std::span(xs).subspan(2 * c, c));
    std::vector<std::uint64_t> out = {kSentinel};
    const std::size_t appended = bound.AppendAdmitSets(xs, 3, eps2, &out);

    const std::size_t words = (group.size() + 63) / 64;
    const double threshold = eps2 * (1.0 + PolarBound::kRelativeMargin);
    std::vector<std::uint64_t> want = {kSentinel};
    for (const std::vector<double>* v : {&values, &self_values, &values}) {
      std::vector<std::uint64_t> set(words, 0);
      for (std::size_t i = 0; i < v->size(); ++i) {
        if ((*v)[i] <= threshold) set[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      if (std::any_of(set.begin(), set.end(),
                      [](std::uint64_t w) { return w != 0; })) {
        want.insert(want.end(), set.begin(), set.end());
      }
    }
    if (target == TransformTarget::kDataOnly &&
        std::any_of(self_values.begin(), self_values.end(),
                    [&](double v) { return std::fabs(v - eps2) < 1e-6; })) {
      continue;  // the self pair sits on the threshold
    }
    EXPECT_EQ(out, want) << "trial " << trial;
    EXPECT_EQ(appended, (want.size() - 1) / words) << "trial " << trial;
    const bool x_admitted = std::any_of(
        values.begin(), values.end(), [&](double v) { return v <= threshold; });
    ++(x_admitted ? admitted : rejected);
    rejected_both += !x_admitted && target == TransformTarget::kBoth ? 1 : 0;
  }
  EXPECT_GT(admitted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(rejected_both, 30);
}

}  // namespace
}  // namespace tsq::core
