#ifndef TSQ_TRANSFORM_TRANSFORM_MBR_H_
#define TSQ_TRANSFORM_TRANSFORM_MBR_H_

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "rstar/rect.h"
#include "transform/feature_layout.h"
#include "transform/feature_transform.h"

namespace tsq::transform {

/// Minimum bounding rectangle of a set of transformations (Section 4.1).
///
/// A transformation t = (a, b) over d feature dimensions is a point in
/// 2d-dimensional space; the MBR over a set of them decomposes into the
/// *mult-MBR* [Ml_i, Mh_i] bounding the a-vectors and the *add-MBR*
/// [Al_i, Ah_i] bounding the b-vectors (Fig. 3). Applying the MBR to a data
/// rectangle X yields the rectangle Y of Eq. 12:
///
///   Yl_i = Al_i + min(Ml*Xl, Ml*Xh, Mh*Xl, Mh*Xh)
///   Yh_i = Ah_i + max(Ml*Xl, Ml*Xh, Mh*Xl, Mh*Xh)
///
/// which contains t(x) for every x in X and t in the MBR (Lemma 1).
///
/// Phase-angle dimensions get special treatment: additive angle offsets live
/// on a circle, so the add-MBR bounds them with the *smallest circular
/// interval* (possibly extending beyond [-pi, pi]); downstream intersection
/// tests on angle dimensions are performed modulo 2*pi.
class TransformMbr {
 public:
  /// Builds the MBR over a non-empty set of transformations of equal
  /// dimensionality matching `layout`.
  TransformMbr(std::span<const FeatureTransform> transforms,
               const FeatureLayout& layout);

  std::size_t dimensions() const { return mult_low_.size(); }
  std::size_t transform_count() const { return transform_count_; }

  double mult_low(std::size_t d) const { return mult_low_[d]; }
  double mult_high(std::size_t d) const { return mult_high_[d]; }
  double add_low(std::size_t d) const { return add_low_[d]; }
  double add_high(std::size_t d) const { return add_high_[d]; }

  /// Eq. 12: the image rectangle of `data` under every transformation in the
  /// MBR. Angle dimensions may exceed [-pi, pi]; use CircularIntersects for
  /// tests against query regions.
  rstar::Rect Apply(const rstar::RectView& data) const;

  /// Apply, written into `*out`: its storage is reused when it already has
  /// this MBR's dimensions, so a loop applying into one scratch rectangle
  /// allocates nothing.
  void ApplyInto(const rstar::RectView& data, rstar::Rect* out) const;

  /// True when `t` lies inside this MBR (for angle-offset dimensions,
  /// membership modulo 2*pi).
  bool Covers(const FeatureTransform& t, double tolerance = 1e-9) const;

  /// Fused Apply + CircularIntersects without allocating the image
  /// rectangle: equivalent to
  /// `CircularIntersects(Apply(data), query, layout)` but cheap enough for
  /// the per-entry hot path of an index traversal, which passes each node
  /// entry as a view of the decoded node.
  bool AppliedIntersects(const rstar::RectView& data,
                         const rstar::Rect& query) const;

 private:
  const FeatureLayout layout_;
  std::size_t transform_count_;
  std::vector<double> mult_low_, mult_high_;
  std::vector<double> add_low_, add_high_;
};

/// Smallest interval [lo, hi] covering all `angles` modulo 2*pi; `hi` may
/// exceed pi (the interval is reported unwrapped, hi - lo <= 2*pi). Requires
/// a non-empty span of angles in [-pi, pi].
std::pair<double, double> SmallestCircularInterval(std::span<const double> angles);

/// The circular separation of two angles `x` apart, in [0, pi]: the bits of
/// std::fabs(std::remainder(x, 2*pi)), without its cost where angles lie.
/// For |x| <= pi that is |x|. For pi < |x| <= 2*pi it is 2*pi - |x|, one
/// subtraction that is exact by Sterbenz's lemma (|x| is within a factor 2
/// of 2*pi), as std::remainder's own result is. Beyond 2*pi, and for inf
/// and NaN, it is std::remainder's.
inline double CircularSeparation(double x) {
  constexpr double kPi = std::numbers::pi;
  const double a = std::fabs(x);
  if (a <= kPi) return a;
  if (a <= 2.0 * kPi) return 2.0 * kPi - a;
  return std::fabs(std::remainder(x, 2.0 * kPi));
}

/// True when intervals [a_lo, a_hi] and [b_lo, b_hi] intersect modulo 2*pi.
bool CircularIntervalsIntersect(double a_lo, double a_hi, double b_lo,
                                double b_hi);

/// Rectangle intersection that treats the layout's angle dimensions as
/// circular and the others as linear. This is the test Algorithm 1 performs
/// between a transformed data rectangle and the query rectangle.
bool CircularIntersects(const rstar::Rect& a, const rstar::Rect& b,
                        const FeatureLayout& layout);

}  // namespace tsq::transform

#endif  // TSQ_TRANSFORM_TRANSFORM_MBR_H_
