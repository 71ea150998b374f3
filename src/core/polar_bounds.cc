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

// One coefficient's box in the form the join prepares it in: the magnitude
// interval under the defensive clamps 0 <= lo <= hi (magnitudes are
// non-negative by construction; the clamps keep BoxMin's convexity argument
// valid for slightly negative inputs), then the angle interval's centre and
// width.
void PrepareBox(double mag_lo, double mag_hi, double ang_lo, double ang_hi,
                double* out) {
  out[0] = std::max(0.0, mag_lo);
  out[1] = std::max(out[0], mag_hi);
  out[2] = 0.5 * (ang_lo + ang_hi);
  out[3] = ang_hi - ang_lo;
}

// Gap between the magnitude intervals of two prepared boxes.
double MagnitudeGap(const double* a, const double* b) {
  return std::max({0.0, a[0] - b[1], b[0] - a[1]});
}

// PolarBoxMinSquaredDistance on two prepared boxes.
double PreparedBoxMin(const double* a, const double* b) {
  const double mag_gap = MagnitudeGap(a, b);
  // Smallest circular gap between the two angle intervals: none when their
  // widths cover the circle or the separation of their centres, reduced
  // once, is within the sum of half-widths (CircularIntervalsIntersect).
  double gap = 0.0;
  const double widths = a[3] + b[3];
  if (!(widths >= kTwoPi)) {
    const double half_widths = 0.5 * widths;
    const double delta = transform::CircularSeparation(b[2] - a[2]);
    if (!(delta <= half_widths + 1e-12)) {
      gap = std::max(0.0, delta - half_widths);
    }
  }
  // Angles can coincide: distance is governed by the magnitude gap alone.
  if (gap == 0.0) return mag_gap * mag_gap;
  // BoxMin >= mag_gap^2 holds exactly, but with cos(gap) near 1 its
  // cancellation can round below; the max keeps it in floating point.
  return std::max(mag_gap * mag_gap,
                  BoxMin(a[0], a[1], b[0], b[1], std::cos(gap)));
}

// A scratch array of `size` elements, inline up to N.
template <typename T, std::size_t N>
class Scratch {
 public:
  explicit Scratch(std::size_t size) : size_(size) {
    if (size > N) heap_.resize(size);
  }
  T* data() { return size_ > N ? heap_.data() : inline_.data(); }

 private:
  std::size_t size_;
  std::array<T, N> inline_;
  std::vector<T> heap_;
};

// LB_t less its rounding allowance under kBoth, from the interleaved
// per-coefficient terms (|X_f - Q_f|^2, |X_f|^2 + |Q_f|^2): the bound sums
// them with `bound_weights`, the allowance's scale S_t with `scale_weights`
// (both are t's own weights, except in the screen).
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
  double a[4] = {}, b[4] = {};
  PrepareBox(a_mag_lo, a_mag_hi, a_ang_lo, a_ang_hi, a);
  PrepareBox(b_mag_lo, b_mag_hi, b_ang_lo, b_ang_hi, b);
  return PreparedBoxMin(a, b);
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

RectPairWithin::RectPairWithin(const transform::FeatureLayout& layout,
                               double bound)
    : layout_(layout), weight_(layout.coefficient_weight()), bound_(bound) {}

void RectPairWithin::Prepare(const rstar::RectView& r, double* out) const {
  TSQ_DCHECK(r.dimensions() == layout_.dimensions());
  for (std::size_t i = 0; i < layout_.num_coefficients; ++i) {
    const std::size_t md = layout_.magnitude_dimension(i);
    const std::size_t ad = layout_.angle_dimension(i);
    PrepareBox(r.low(md), r.high(md), r.low(ad), r.high(ad),
               out + kPreparedPerCoefficient * i);
  }
}

bool RectPairWithin::operator()(const double* a, const double* b) const {
  const std::size_t coefficients = layout_.num_coefficients;
  double magnitudes = 0.0;
  for (std::size_t i = 0; i < coefficients; ++i) {
    const double gap = MagnitudeGap(a + kPreparedPerCoefficient * i,
                                    b + kPreparedPerCoefficient * i);
    magnitudes += weight_ * (gap * gap);
  }
  if (magnitudes > bound_) return false;
  double total = 0.0;
  for (std::size_t i = 0; i < coefficients; ++i) {
    total += weight_ * PreparedBoxMin(a + kPreparedPerCoefficient * i,
                                      b + kPreparedPerCoefficient * i);
    if (total > bound_) return false;
  }
  return total <= bound_;
}

PolarBound::PolarBound(const transform::FeatureLayout& layout,
                       std::span<const transform::SpectralTransform> transforms,
                       std::span<const std::size_t> group,
                       TransformTarget target,
                       std::span<const dft::Complex> query)
    : coefficients_(layout.num_coefficients),
      transforms_(group.size()),
      data_only_(target == TransformTarget::kDataOnly),
      weight_(layout.coefficient_weight()),
      query_(query.begin(), query.end()) {
  TSQ_CHECK(query.empty() || query.size() == coefficients_);
  for (const std::size_t t : group) {
    for (std::size_t i = 0; i < coefficients_; ++i) {
      const std::size_t f = layout.coefficient(i);
      if (data_only_) {
        multipliers_.push_back(transforms[t].multiplier(f));
      } else {
        weights_.push_back(weight_ * transforms[t].squared_magnitudes()[f]);
      }
    }
  }
  if (!data_only_) {
    least_.assign(coefficients_, std::numeric_limits<double>::infinity());
    greatest_.assign(coefficients_, 0.0);
    for (std::size_t t = 0; t < transforms_; ++t) {
      for (std::size_t i = 0; i < coefficients_; ++i) {
        least_[i] = std::min(least_[i], weights_[t * coefficients_ + i]);
        greatest_[i] = std::max(greatest_[i], weights_[t * coefficients_ + i]);
      }
    }
  }
}

void PolarBound::Terms(const dft::Complex* x, const dft::Complex* q,
                       double* terms) const {
  if (data_only_) return;
  for (std::size_t i = 0; i < coefficients_; ++i) {
    terms[2 * i] = std::norm(x[i] - q[i]);
    terms[2 * i + 1] = std::norm(x[i]) + std::norm(q[i]);
  }
}

bool PolarBound::Screens(const double* terms, double threshold) const {
  // Every term is non-negative and rounding is monotone, so the screened
  // value, summed in the same order, never exceeds any t's: when it
  // exceeds the threshold, every t's does.
  return !data_only_ && WeightedValue(least_.data(), greatest_.data(), terms,
                                      coefficients_) > threshold;
}

double PolarBound::Value(std::size_t t, const dft::Complex* x,
                         const dft::Complex* q, const double* terms) const {
  if (data_only_) {
    // The angle offset arg M_f differs per t, so each t takes its own
    // complex products.
    return DataOnlyValue(multipliers_.data() + t * coefficients_, x, q,
                         coefficients_, weight_);
  }
  const double* weights = weights_.data() + t * coefficients_;
  return WeightedValue(weights, weights, terms, coefficients_);
}

bool PolarBound::PrunesAgainst(const dft::Complex* x, const dft::Complex* q,
                               double eps2) const {
  const double threshold = eps2 * (1.0 + kRelativeMargin);
  Scratch<double, 16> terms(2 * coefficients_);
  Terms(x, q, terms.data());
  if (Screens(terms.data(), threshold)) return true;
  for (std::size_t t = 0; t < transforms_; ++t) {
    if (!(Value(t, x, q, terms.data()) > threshold)) return false;
  }
  return true;
}

double PolarBound::Min(std::span<const dft::Complex> x) const {
  TSQ_DCHECK(x.size() == coefficients_ && query_.size() == coefficients_);
  Scratch<double, 16> terms(2 * coefficients_);
  Terms(x.data(), query_.data(), terms.data());
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < transforms_; ++t) {
    best = std::min(best, Value(t, x.data(), query_.data(), terms.data()));
  }
  return std::max(0.0, best);
}

bool PolarBound::Prunes(std::span<const dft::Complex> x, double eps2) const {
  TSQ_DCHECK(x.size() == coefficients_ && query_.size() == coefficients_);
  return PrunesAgainst(x.data(), query_.data(), eps2);
}

bool PolarBound::PrunesPair(std::span<const dft::Complex> a,
                            std::span<const dft::Complex> b,
                            double eps2) const {
  TSQ_DCHECK(!data_only_);
  TSQ_DCHECK(a.size() == coefficients_ && b.size() == coefficients_);
  return PrunesAgainst(a.data(), b.data(), eps2);
}

std::size_t PolarBound::AppendAdmitSets(
    std::span<const dft::Complex> xs, std::size_t count, double eps2,
    std::vector<std::uint64_t>* out) const {
  TSQ_CHECK_EQ(xs.size(), count * coefficients_);
  TSQ_DCHECK(query_.size() == coefficients_);
  const std::size_t words = (transforms_ + 63) / 64;
  const double threshold = eps2 * (1.0 + kRelativeMargin);
  Scratch<double, 16> terms(2 * coefficients_);
  std::size_t appended = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const dft::Complex* x = xs.data() + c * coefficients_;
    Terms(x, query_.data(), terms.data());
    if (Screens(terms.data(), threshold)) continue;
    const std::size_t at = out->size();
    out->resize(at + words);
    std::uint64_t any = 0;
    for (std::size_t t = 0; t < transforms_; ++t) {
      if (!(Value(t, x, query_.data(), terms.data()) > threshold)) {
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
