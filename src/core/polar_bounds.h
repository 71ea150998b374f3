#ifndef TSQ_CORE_POLAR_BOUNDS_H_
#define TSQ_CORE_POLAR_BOUNDS_H_

#include "rstar/rect.h"
#include "transform/feature_layout.h"

namespace tsq::core {

/// Exact minimum of |u - v|^2 over complex u, v whose polar coordinates are
/// confined to [mag, angle] boxes A and B (angle intervals treated modulo
/// 2*pi). This is the per-coefficient building block of index-level distance
/// lower bounds: with magnitudes m_u, m_v and angular gap g,
/// |u - v|^2 = m_u^2 + m_v^2 - 2 m_u m_v cos g, minimized over the boxes.
/// Never below the squared gap between the two magnitude intervals, in
/// floating point as in exact arithmetic (|u - v| >= ||u| - |v||).
double PolarBoxMinSquaredDistance(double a_mag_lo, double a_mag_hi,
                                  double a_ang_lo, double a_ang_hi,
                                  double b_mag_lo, double b_mag_hi,
                                  double b_ang_lo, double b_ang_hi);

/// Lower bound on the full squared Euclidean distance between any sequence
/// whose (possibly transformed) features lie in `a` and any whose features
/// lie in `b`: the sum over retained coefficients of
/// PolarBoxMinSquaredDistance, weighted by the layout's symmetry factor.
/// Mean/stddev dimensions do not contribute (they are not distance terms).
/// By Parseval, retained coefficients never exceed the total, so this is a
/// valid lower bound whatever the dropped coefficients do.
double RectPairSquaredDistanceLowerBound(const rstar::Rect& a,
                                         const rstar::Rect& b,
                                         const transform::FeatureLayout& layout);

/// Exactly `RectPairSquaredDistanceLowerBound(a, b, layout) <= bound`, the
/// spatial join's predicate. It first sums the weighted squared gaps of the
/// magnitude intervals and answers false when that sum exceeds `bound`,
/// without any angle arithmetic. The early answer is exact: each polar term
/// is at least its magnitude term (see PolarBoxMinSquaredDistance) and both
/// sums add in the same order, so the full sum exceeds `bound` too.
bool RectPairWithinSquaredDistance(const rstar::Rect& a, const rstar::Rect& b,
                                   const transform::FeatureLayout& layout,
                                   double bound);

/// Same bound with `b` degenerate (a feature point).
double RectPointSquaredDistanceLowerBound(
    const rstar::Rect& a, const rstar::Point& b,
    const transform::FeatureLayout& layout);

/// Lower bound between two feature *points* (both degenerate): the exact
/// retained-subspace distance, weighted by the symmetry factor.
double PointPairSquaredDistanceLowerBound(
    const rstar::Point& a, const rstar::Point& b,
    const transform::FeatureLayout& layout);

}  // namespace tsq::core

#endif  // TSQ_CORE_POLAR_BOUNDS_H_
