#include "core/polar_bounds.h"

#include <algorithm>
#include <array>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "common/check.h"
#include "transform/transform_mbr.h"

namespace tsq::core {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// PolarBound's rounding allowance per unit of its scale S_t.
constexpr double kRoundingAllowance = PolarBound::kRoundingUlps * DBL_EPSILON;

double Clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

// min over m_u in [ul, uh], m_v in [vl, vh] of
//   f(m_u, m_v) = m_u^2 + m_v^2 - 2 c m_u m_v,   c = cos(gap) in [-1, 1].
// f is convex (Hessian [[2, -2c], [-2c, 2]], PSD); its only critical point
// is (0, 0), so the box minimum is at (0,0) if contained, else on an edge;
// each edge restriction is a 1-D convex quadratic minimized by clamping its
// vertex.
double BoxMin(double ul, double uh, double vl, double vh, double c) {
  const auto f = [c](double u, double v) {
    return u * u + v * v - 2.0 * c * u * v;
  };
  if (ul <= 0.0 && 0.0 <= uh && vl <= 0.0 && 0.0 <= vh) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  // Edges u = ul and u = uh: vertex at v = c*u.
  for (const double u : {ul, uh}) {
    best = std::min(best, f(u, Clamp(c * u, vl, vh)));
  }
  // Edges v = vl and v = vh: vertex at u = c*v.
  for (const double v : {vl, vh}) {
    best = std::min(best, f(Clamp(c * v, ul, uh), v));
  }
  return std::max(0.0, best);
}

// Gap between two magnitude intervals, under the same defensive clamps as
// the boxes PolarBoxMinSquaredDistance minimizes over.
double MagnitudeGap(double a_lo, double a_hi, double b_lo, double b_hi) {
  a_lo = std::max(0.0, a_lo);
  b_lo = std::max(0.0, b_lo);
  a_hi = std::max(a_lo, a_hi);
  b_hi = std::max(b_lo, b_hi);
  return std::max({0.0, a_lo - b_hi, b_lo - a_hi});
}

// A scratch array of `size` elements, inline up to N.
template <typename T, std::size_t N>
class Scratch {
 public:
  explicit Scratch(std::size_t size) : size_(size) {
    if (size > N) heap_.resize(size);
  }
  T* data() { return size_ > N ? heap_.data() : inline_.data(); }
  std::span<T> span() { return {data(), size_}; }
  T& operator[](std::size_t i) { return data()[i]; }

 private:
  std::size_t size_;
  std::array<T, N> inline_;
  std::vector<T> heap_;
};

// LB_t less its rounding allowance under kBoth, from the interleaved
// per-coefficient terms (|X_f - Q_f|^2, |X_f|^2 + |Q_f|^2): the bound sums
// them with `bound_weights`, the allowance's scale S_t with `scale_weights`
// (both are t's own weights, except in AppendAdmitSets' screen).
double WeightedValue(const double* bound_weights, const double* scale_weights,
                     const double* terms, std::size_t coefficients) {
  double bound = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < coefficients; ++i) {
    bound += bound_weights[i] * terms[2 * i];
    scale += scale_weights[i] * terms[2 * i + 1];
  }
  return bound - kRoundingAllowance * scale;
}

// LB_t less its rounding allowance under kDataOnly, for t's multipliers and
// the candidate's and query's coefficients in cartesian form.
double DataOnlyValue(const dft::Complex* multipliers, const dft::Complex* x,
                     const dft::Complex* q, std::size_t coefficients,
                     double w) {
  double bound = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < coefficients; ++i) {
    const dft::Complex mx = multipliers[i] * x[i];
    bound += w * std::norm(mx - q[i]);
    scale += w * (std::norm(mx) + std::norm(q[i]));
  }
  return bound - kRoundingAllowance * scale;
}

}  // namespace

double PolarBoxMinSquaredDistance(double a_mag_lo, double a_mag_hi,
                                  double a_ang_lo, double a_ang_hi,
                                  double b_mag_lo, double b_mag_hi,
                                  double b_ang_lo, double b_ang_hi) {
  TSQ_DCHECK(a_mag_lo <= a_mag_hi);
  TSQ_DCHECK(b_mag_lo <= b_mag_hi);
  const double mag_gap = MagnitudeGap(a_mag_lo, a_mag_hi, b_mag_lo, b_mag_hi);
  // Magnitudes are non-negative by construction; clamp defensively so the
  // convexity argument stays valid for slightly negative inputs.
  a_mag_lo = std::max(0.0, a_mag_lo);
  b_mag_lo = std::max(0.0, b_mag_lo);
  a_mag_hi = std::max(a_mag_lo, a_mag_hi);
  b_mag_hi = std::max(b_mag_lo, b_mag_hi);

  // Smallest circular gap between the two angle intervals.
  double gap = 0.0;
  if (!transform::CircularIntervalsIntersect(a_ang_lo, a_ang_hi, b_ang_lo,
                                             b_ang_hi)) {
    const double center_a = 0.5 * (a_ang_lo + a_ang_hi);
    const double center_b = 0.5 * (b_ang_lo + b_ang_hi);
    const double half_widths =
        0.5 * ((a_ang_hi - a_ang_lo) + (b_ang_hi - b_ang_lo));
    const double delta = std::fabs(std::remainder(center_b - center_a, kTwoPi));
    gap = std::max(0.0, delta - half_widths);
  }
  // Angles can coincide: distance is governed by the magnitude gap alone.
  if (gap == 0.0) return mag_gap * mag_gap;
  // BoxMin >= mag_gap^2 holds exactly, but with cos(gap) near 1 its
  // cancellation can round below; the max keeps it in floating point.
  return std::max(mag_gap * mag_gap, BoxMin(a_mag_lo, a_mag_hi, b_mag_lo,
                                            b_mag_hi, std::cos(gap)));
}

double RectPairSquaredDistanceLowerBound(
    const rstar::Rect& a, const rstar::Rect& b,
    const transform::FeatureLayout& layout) {
  TSQ_DCHECK(a.dimensions() == layout.dimensions());
  TSQ_DCHECK(b.dimensions() == layout.dimensions());
  double total = 0.0;
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t md = layout.magnitude_dimension(i);
    const std::size_t ad = layout.angle_dimension(i);
    total += layout.coefficient_weight() *
             PolarBoxMinSquaredDistance(a.low(md), a.high(md), a.low(ad),
                                        a.high(ad), b.low(md), b.high(md),
                                        b.low(ad), b.high(ad));
  }
  return total;
}

bool RectPairWithinSquaredDistance(const rstar::Rect& a, const rstar::Rect& b,
                                   const transform::FeatureLayout& layout,
                                   double bound) {
  double magnitudes = 0.0;
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t md = layout.magnitude_dimension(i);
    const double gap =
        MagnitudeGap(a.low(md), a.high(md), b.low(md), b.high(md));
    magnitudes += layout.coefficient_weight() * (gap * gap);
  }
  if (magnitudes > bound) return false;
  return RectPairSquaredDistanceLowerBound(a, b, layout) <= bound;
}

PolarBound::PolarBound(const transform::FeatureLayout& layout,
                       std::span<const transform::SpectralTransform> transforms,
                       std::span<const std::size_t> group,
                       TransformTarget target,
                       std::span<const double> query_features)
    : layout_(layout),
      coefficients_(layout.num_coefficients),
      transforms_(group.size()),
      data_only_(target == TransformTarget::kDataOnly),
      query_features_(query_features.begin(), query_features.end()) {
  TSQ_CHECK(query_features.empty() ||
            query_features.size() == layout.dimensions());
  const double w = layout.coefficient_weight();
  for (const std::size_t t : group) {
    for (std::size_t i = 0; i < coefficients_; ++i) {
      const std::size_t f = layout.coefficient(i);
      if (data_only_) {
        multipliers_.push_back(transforms[t].multiplier(f));
      } else {
        weights_.push_back(w * transforms[t].squared_magnitudes()[f]);
      }
    }
  }
  if (data_only_ && !query_features.empty()) {
    query_.resize(coefficients_);
    ToCartesian(layout, query_features, query_);
  }
}

void PolarBound::ToCartesian(const transform::FeatureLayout& layout,
                             std::span<const double> features,
                             std::span<dft::Complex> out) {
  TSQ_DCHECK(out.size() == layout.num_coefficients);
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    out[i] = std::polar(features[layout.magnitude_dimension(i)],
                        features[layout.angle_dimension(i)]);
  }
}

double PolarBound::MinBoth(std::span<const double> x,
                           std::span<const double> q) const {
  // Per coefficient, |X_f - Q_f|^2 by the law of cosines (one cosine on the
  // polar coordinates as stored) and |X_f|^2 + |Q_f|^2; neither depends on
  // t, so each LB_t is a weighted sum of them.
  Scratch<double, 16> terms(2 * coefficients_);
  for (std::size_t i = 0; i < coefficients_; ++i) {
    const std::size_t md = layout_.magnitude_dimension(i);
    const std::size_t ad = layout_.angle_dimension(i);
    const double sum = x[md] * x[md] + q[md] * q[md];
    terms[2 * i] = sum - 2.0 * x[md] * q[md] * std::cos(x[ad] - q[ad]);
    terms[2 * i + 1] = sum;
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < transforms_; ++t) {
    const double* weights = weights_.data() + t * coefficients_;
    best = std::min(best, WeightedValue(weights, weights, terms.data(),
                                        coefficients_));
  }
  return std::max(0.0, best);
}

double PolarBound::MinDataOnly(std::span<const double> x) const {
  // X_f in cartesian form once, then per t the complex product M_f X_f:
  // the angle offset arg M_f differs per t, the trigonometry does not.
  Scratch<dft::Complex, 8> xs(coefficients_);
  ToCartesian(layout_, x, xs.span());
  const double w = layout_.coefficient_weight();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < transforms_; ++t) {
    best = std::min(best, DataOnlyValue(multipliers_.data() + t * coefficients_,
                                        xs.data(), query_.data(),
                                        coefficients_, w));
  }
  return std::max(0.0, best);
}

double PolarBound::Min(std::span<const double> features) const {
  TSQ_DCHECK(query_features_.size() == layout_.dimensions());
  return data_only_ ? MinDataOnly(features)
                    : MinBoth(features, query_features_);
}

double PolarBound::MinPair(std::span<const double> a,
                           std::span<const double> b) const {
  TSQ_DCHECK(!data_only_);
  return MinBoth(a, b);
}

std::size_t PolarBound::AppendAdmitSets(
    std::span<const dft::Complex> xs, std::size_t count, double eps2,
    std::vector<std::uint64_t>* out) const {
  TSQ_CHECK_EQ(xs.size(), count * coefficients_);
  TSQ_DCHECK(query_features_.size() == layout_.dimensions());
  const std::size_t words = (transforms_ + 63) / 64;
  const double threshold = eps2 * (1.0 + kRelativeMargin);
  const double w = layout_.coefficient_weight();
  Scratch<dft::Complex, 8> q(coefficients_);
  ToCartesian(layout_, query_features_, q.span());
  // kBoth screen weights, per coefficient over the rectangle's
  // transformations: the least on the bound, the greatest on its allowance.
  Scratch<double, 8> least(coefficients_);
  Scratch<double, 8> greatest(coefficients_);
  for (std::size_t i = 0; i < coefficients_; ++i) {
    least[i] = std::numeric_limits<double>::infinity();
    greatest[i] = 0.0;
    for (std::size_t t = 0; t < transforms_ && !data_only_; ++t) {
      least[i] = std::min(least[i], weights_[t * coefficients_ + i]);
      greatest[i] = std::max(greatest[i], weights_[t * coefficients_ + i]);
    }
  }
  // Squared moduli spelled out: std::norm goes through std::abs.
  const auto squared = [](dft::Complex z) {
    return z.real() * z.real() + z.imag() * z.imag();
  };
  Scratch<double, 16> terms(2 * coefficients_);
  std::size_t appended = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const dft::Complex* x = xs.data() + c * coefficients_;
    if (!data_only_) {
      for (std::size_t i = 0; i < coefficients_; ++i) {
        terms[2 * i] = squared(x[i] - q[i]);
        terms[2 * i + 1] = squared(x[i]) + squared(q[i]);
      }
      // Every term is non-negative and rounding is monotone, so the
      // screened value, summed in the same order, never exceeds any t's:
      // when it fails the threshold, every t does.
      if (WeightedValue(least.data(), greatest.data(), terms.data(),
                        coefficients_) > threshold) {
        continue;
      }
    }
    const std::size_t at = out->size();
    out->resize(at + words);
    std::uint64_t any = 0;
    for (std::size_t t = 0; t < transforms_; ++t) {
      const double value =
          data_only_
              ? DataOnlyValue(multipliers_.data() + t * coefficients_, x,
                              q.data(), coefficients_, w)
              : WeightedValue(weights_.data() + t * coefficients_,
                              weights_.data() + t * coefficients_,
                              terms.data(), coefficients_);
      if (!(value > threshold)) {  // Prunes' test, per t
        (*out)[at + t / 64] |= std::uint64_t{1} << (t % 64);
        any = 1;
      }
    }
    if (any != 0) {
      ++appended;
    } else {
      out->resize(at);
    }
  }
  return appended;
}

}  // namespace tsq::core
