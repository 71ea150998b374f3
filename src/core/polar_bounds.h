#ifndef TSQ_CORE_POLAR_BOUNDS_H_
#define TSQ_CORE_POLAR_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/query.h"
#include "dft/fft.h"
#include "rstar/rect.h"
#include "transform/feature_layout.h"
#include "transform/spectral_transform.h"

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

/// The exact feature-level lower bound that sits between the index filter
/// and the record fetch (GEMINI lower bounding, Faloutsos et al. 1994). For
/// one transformation rectangle and one query it evaluates, per
/// transformation t of the rectangle, the exact partial sum of t's Eq. 12
/// distance over the layout's indexed coefficients f:
///
///   kBoth:     LB_t(x) = sum_f w |M_f|^2 |X_f - Q_f|^2
///   kDataOnly: LB_t(x) = sum_f w |M_f X_f - Q_f|^2
///
/// where w is the layout's coefficient weight (2 under the symmetry
/// property, Rafiei & Mendelzon) and X_f, Q_f come from the polar index
/// features of the candidate and of the query (after its query_transform).
/// Every term of the full distance is non-negative, so LB_t never exceeds
/// t's distance, and a candidate whose LB_t reaches eps^2 for every t of its
/// rectangle cannot match and need not be fetched.
///
/// Unlike the rectangle test, which pairs t(x) with t'(q) for any t, t' of
/// the rectangle and gives each coefficient the whole eps budget, LB_t pairs
/// t with itself and sums the coefficients.
///
/// Rounding: the terms are computed from polar coordinates, so a computed
/// LB_t can exceed its exact value by a few ulps of
/// S_t = sum_f w (|M_f X_f|^2 + |M_f Q_f|^2) (kBoth) or
/// sum_f w (|M_f X_f|^2 + |Q_f|^2) (kDataOnly). Min() subtracts
/// kRoundingUlps ulps of S_t, and Prunes() also keeps a relative margin of
/// kRelativeMargin, so a candidate whose kernel distance is below eps^2 is
/// never pruned. The arithmetic is plain scalar C++ with no kernel dispatch:
/// a prune decision never depends on TSQ_KERNEL_ISA.
///
/// AppendAdmitSets answers, per transformation, the question Prunes answers
/// for the minimum, for candidates given in cartesian form (ToCartesian):
/// the planner bounds a fixed sample of feature points against a few of
/// them standing in for the query, converting each point once.
class PolarBound {
 public:
  static constexpr double kRelativeMargin = 1e-9;
  static constexpr double kRoundingUlps = 64.0;

  /// Prepared once per (query, rectangle): the transformations
  /// `transforms[group[i]]` under `target`, against the query's index
  /// features `query_features` (PreparedQuery::features). Empty
  /// `query_features` prepare a kBoth bound for MinPair only.
  PolarBound(const transform::FeatureLayout& layout,
             std::span<const transform::SpectralTransform> transforms,
             std::span<const std::size_t> group, TransformTarget target,
             std::span<const double> query_features);

  /// min over the rectangle's t of LB_t(x) less its rounding allowance,
  /// clamped at 0: a lower bound of every t's distance between the
  /// candidate with index features `features` and the query.
  double Min(std::span<const double> features) const;

  /// True when no transformation of the rectangle can bring the candidate
  /// within `eps2`: Min(features) > eps2 * (1 + kRelativeMargin).
  bool Prunes(std::span<const double> features, double eps2) const {
    return Min(features) > eps2 * (1.0 + kRelativeMargin);
  }

  /// Min for a pair of data sequences under kBoth: the same-transform
  /// distance D(t(a), t(b)) of the self-join, with b in the query's place.
  double MinPair(std::span<const double> a, std::span<const double> b) const;

  /// Prunes for a pair: MinPair(a, b) > eps2 * (1 + kRelativeMargin).
  bool PrunesPair(std::span<const double> a, std::span<const double> b,
                  double eps2) const {
    return MinPair(a, b) > eps2 * (1.0 + kRelativeMargin);
  }

  /// The indexed coefficients of a feature point in cartesian form:
  /// `out[i]` is X_f for the layout's i-th indexed coefficient f.
  static void ToCartesian(const transform::FeatureLayout& layout,
                          std::span<const double> features,
                          std::span<dft::Complex> out);

  /// Which transformations of the rectangle let each of `count` candidates
  /// through under `eps2`. `xs` holds the candidates' ToCartesian
  /// coefficients back to back. For each candidate that some transformation
  /// admits, in order, appends ceil(transforms / 64) words to `out`: bit i
  /// (64 per word) is set exactly when the i-th transformation's LB_t, less
  /// its rounding allowance, is at most eps2 * (1 + kRelativeMargin).
  /// Returns the number of candidates appended. The terms come from
  /// cartesian coordinates instead of the law of cosines, so a value may
  /// differ from Min's by a few ulps of S_t.
  std::size_t AppendAdmitSets(std::span<const dft::Complex> xs,
                              std::size_t count, double eps2,
                              std::vector<std::uint64_t>* out) const;

 private:
  double MinBoth(std::span<const double> x, std::span<const double> q) const;
  double MinDataOnly(std::span<const double> x) const;

  transform::FeatureLayout layout_;
  std::size_t coefficients_ = 0;  // indexed coefficients per point
  std::size_t transforms_ = 0;    // transformations of the rectangle
  bool data_only_ = false;
  // Per transformation, per indexed coefficient (t-major): w |M_f|^2 for
  // kBoth, M_f for kDataOnly.
  std::vector<double> weights_;
  std::vector<dft::Complex> multipliers_;
  std::vector<double> query_features_;
  std::vector<dft::Complex> query_;  // kDataOnly: Q_f in cartesian form
};

}  // namespace tsq::core

#endif  // TSQ_CORE_POLAR_BOUNDS_H_
