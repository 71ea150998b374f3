#include "transform/transform_mbr.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "dft/spectrum.h"

namespace tsq::transform {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

std::pair<double, double> SmallestCircularInterval(
    std::span<const double> angles) {
  TSQ_CHECK(!angles.empty());
  std::vector<double> sorted(angles.begin(), angles.end());
  for (double& a : sorted) a = dft::WrapAngle(a);
  std::sort(sorted.begin(), sorted.end());
  // The smallest covering interval is the complement of the largest gap
  // between circularly consecutive angles.
  double best_gap = kTwoPi - (sorted.back() - sorted.front());
  std::size_t gap_after = sorted.size() - 1;  // gap between last and first
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    const double gap = sorted[i + 1] - sorted[i];
    if (gap > best_gap) {
      best_gap = gap;
      gap_after = i;
    }
  }
  if (gap_after == sorted.size() - 1) {
    return {sorted.front(), sorted.back()};
  }
  // Interval starts after the largest gap and wraps past pi.
  return {sorted[gap_after + 1], sorted[gap_after] + kTwoPi};
}

bool CircularIntervalsIntersect(double a_lo, double a_hi, double b_lo,
                                double b_hi) {
  TSQ_DCHECK(a_lo <= a_hi);
  TSQ_DCHECK(b_lo <= b_hi);
  const double width_a = a_hi - a_lo;
  const double width_b = b_hi - b_lo;
  if (width_a + width_b >= kTwoPi) return true;
  const double center_a = 0.5 * (a_lo + a_hi);
  const double center_b = 0.5 * (b_lo + b_hi);
  // Intervals (as arcs) intersect iff the separation of their centers is at
  // most the sum of half-widths.
  return CircularSeparation(center_b - center_a) <=
         0.5 * (width_a + width_b) + 1e-12;
}

bool CircularIntersects(const rstar::Rect& a, const rstar::Rect& b,
                        const FeatureLayout& layout) {
  TSQ_DCHECK(a.dimensions() == b.dimensions());
  for (std::size_t d = 0; d < a.dimensions(); ++d) {
    if (layout.is_angle_dimension(d)) {
      if (!CircularIntervalsIntersect(a.low(d), a.high(d), b.low(d),
                                      b.high(d))) {
        return false;
      }
    } else {
      if (a.low(d) > b.high(d) || b.low(d) > a.high(d)) return false;
    }
  }
  return true;
}

TransformMbr::TransformMbr(std::span<const FeatureTransform> transforms,
                           const FeatureLayout& layout)
    : layout_(layout), transform_count_(transforms.size()) {
  TSQ_CHECK(!transforms.empty());
  const std::size_t dims = transforms.front().dimensions();
  TSQ_CHECK_EQ(dims, layout.dimensions());
  mult_low_.assign(dims, std::numeric_limits<double>::infinity());
  mult_high_.assign(dims, -std::numeric_limits<double>::infinity());
  add_low_.assign(dims, std::numeric_limits<double>::infinity());
  add_high_.assign(dims, -std::numeric_limits<double>::infinity());

  for (const FeatureTransform& t : transforms) {
    TSQ_CHECK_EQ(t.dimensions(), dims);
    for (std::size_t d = 0; d < dims; ++d) {
      mult_low_[d] = std::min(mult_low_[d], t.scale(d));
      mult_high_[d] = std::max(mult_high_[d], t.scale(d));
      if (!layout.is_angle_dimension(d)) {
        add_low_[d] = std::min(add_low_[d], t.offset(d));
        add_high_[d] = std::max(add_high_[d], t.offset(d));
      }
    }
  }
  // Angle-offset dimensions: smallest circular covering interval.
  std::vector<double> angles(transforms.size());
  for (std::size_t d = 0; d < dims; ++d) {
    if (!layout.is_angle_dimension(d)) continue;
    for (std::size_t i = 0; i < transforms.size(); ++i) {
      angles[i] = transforms[i].offset(d);
    }
    const auto [lo, hi] = SmallestCircularInterval(angles);
    add_low_[d] = lo;
    add_high_[d] = hi;
  }
}

rstar::Rect TransformMbr::Apply(const rstar::RectView& data) const {
  rstar::Rect out;
  ApplyInto(data, &out);
  return out;
}

void TransformMbr::ApplyInto(const rstar::RectView& data,
                             rstar::Rect* out) const {
  TSQ_CHECK_EQ(data.dimensions(), dimensions());
  const std::size_t dims = dimensions();
  if (out->dimensions() != dims) *out = rstar::Rect::Empty(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const double products[4] = {
        mult_low_[d] * data.low(d), mult_low_[d] * data.high(d),
        mult_high_[d] * data.low(d), mult_high_[d] * data.high(d)};
    const auto [pmin, pmax] = std::minmax_element(products, products + 4);
    out->set_low(d, add_low_[d] + *pmin);
    out->set_high(d, add_high_[d] + *pmax);
  }
}

bool TransformMbr::AppliedIntersects(const rstar::RectView& data,
                                     const rstar::Rect& query) const {
  TSQ_DCHECK(data.dimensions() == dimensions());
  TSQ_DCHECK(query.dimensions() == dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    const double p1 = mult_low_[d] * data.low(d);
    const double p2 = mult_low_[d] * data.high(d);
    const double p3 = mult_high_[d] * data.low(d);
    const double p4 = mult_high_[d] * data.high(d);
    const double lo = add_low_[d] + std::min(std::min(p1, p2), std::min(p3, p4));
    const double hi =
        add_high_[d] + std::max(std::max(p1, p2), std::max(p3, p4));
    if (layout_.is_angle_dimension(d)) {
      if (!CircularIntervalsIntersect(lo, hi, query.low(d), query.high(d))) {
        return false;
      }
    } else {
      if (lo > query.high(d) || query.low(d) > hi) return false;
    }
  }
  return true;
}

bool TransformMbr::Covers(const FeatureTransform& t, double tolerance) const {
  TSQ_CHECK_EQ(t.dimensions(), dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (t.scale(d) < mult_low_[d] - tolerance ||
        t.scale(d) > mult_high_[d] + tolerance) {
      return false;
    }
    if (layout_.is_angle_dimension(d)) {
      // Membership modulo 2*pi: offset must fall inside the unwrapped
      // interval after shifting by a multiple of 2*pi.
      const double width = add_high_[d] - add_low_[d];
      double rel = std::remainder(t.offset(d) - add_low_[d], kTwoPi);
      if (rel < 0.0) rel += kTwoPi;
      if (rel > width + tolerance && kTwoPi - rel > tolerance) return false;
    } else {
      if (t.offset(d) < add_low_[d] - tolerance ||
          t.offset(d) > add_high_[d] + tolerance) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace tsq::transform
