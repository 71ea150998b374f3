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

/// The spatial join's predicate (an rstar::JoinPredicate): decides exactly
/// `RectPairSquaredDistanceLowerBound(a, b, layout) <= bound`, bit for bit,
/// on rects prepared once each. Prepare writes, per retained coefficient,
/// the magnitude interval under PolarBoxMinSquaredDistance's clamps and the
/// angle interval's centre and width: the values that function derives from
/// the rect on every call.
///
/// A call first sums the weighted squared gaps of the magnitude intervals
/// and answers false when that sum exceeds `bound`, without any angle
/// arithmetic. It then adds the coefficient terms in the lower bound's
/// order, each reducing its centres' separation once with
/// transform::CircularSeparation, and answers false as soon as the running
/// total exceeds `bound`. Both early answers are exact: every term is
/// non-negative, each polar term is at least its magnitude term (see
/// PolarBoxMinSquaredDistance), and rounding is monotone, so the full sum
/// exceeds `bound` too. The computed bound is not bitwise symmetric in
/// (a, b), so neither is the decision at its margin.
class RectPairWithin {
 public:
  RectPairWithin(const transform::FeatureLayout& layout, double bound);

  /// Doubles per prepared rect.
  std::size_t prepared_size() const {
    return kPreparedPerCoefficient * layout_.num_coefficients;
  }

  /// Writes `r` (of the layout's dimensions) in prepared form to
  /// `out[0, prepared_size())`.
  void Prepare(const rstar::RectView& r, double* out) const;

  /// The decision on the prepared rects `a` and `b`.
  bool operator()(const double* a, const double* b) const;

 private:
  static constexpr std::size_t kPreparedPerCoefficient = 4;

  transform::FeatureLayout layout_;
  double weight_;
  double bound_;
};

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
/// property, Rafiei & Mendelzon). X_f and Q_f are cartesian, the same
/// doubles the kernel reads: the candidate's come from
/// Dataset::coefficients, a bit-for-bit copy of its stored record, and the
/// query's are PreparedQuery::coefficients, picked from its prepared
/// spectrum after its query_transform. Every term of the
/// full distance is non-negative, so LB_t never exceeds t's distance, and a
/// candidate whose LB_t exceeds eps^2 for every t of its rectangle cannot
/// match and need not be fetched.
///
/// Unlike the rectangle test, which pairs t(x) with t'(q) for any t, t' of
/// the rectangle and gives each coefficient the whole eps budget, LB_t pairs
/// t with itself and sums the coefficients.
///
/// Rounding: the bound sums its terms in another order than the kernel sums
/// the full distance, so a computed LB_t can exceed the kernel's value by a
/// few ulps of S_t = sum_f w (|M_f X_f|^2 + |M_f Q_f|^2) (kBoth) or
/// sum_f w (|M_f X_f|^2 + |Q_f|^2) (kDataOnly). Every value subtracts
/// kRoundingUlps ulps of S_t, and Prunes also keeps a relative margin of
/// kRelativeMargin, so a candidate whose kernel distance is below eps^2 is
/// never pruned. The arithmetic is plain scalar C++ with no kernel dispatch:
/// a prune decision never depends on TSQ_KERNEL_ISA.
///
/// Screen (kBoth): the terms |X_f - Q_f|^2 and |X_f|^2 + |Q_f|^2 are
/// computed once per candidate with std::norm and do not depend on t.
/// Prunes first sums them with, per coefficient, the least weight w |M_f|^2
/// over the rectangle's transformations on the bound and the greatest on
/// its allowance (both taken once, in the constructor). The screen is
/// exact: the terms are never negative and rounding is monotone, so the
/// screened value, summed in LB_t's order, never exceeds any t's value.
/// When it exceeds the threshold, every t's does, and the candidate is
/// pruned without the per-t sums; otherwise Prunes sums per t and stops at
/// the first t that admits. AppendAdmitSets runs the same screen and sums.
class PolarBound {
 public:
  static constexpr double kRelativeMargin = 1e-9;
  static constexpr double kRoundingUlps = 64.0;

  /// Prepared once per (query, rectangle): the transformations
  /// `transforms[group[i]]` under `target`, against the query's indexed
  /// coefficients `query` (PreparedQuery::coefficients).
  /// An empty `query` prepares a kBoth bound for PrunesPair only.
  PolarBound(const transform::FeatureLayout& layout,
             std::span<const transform::SpectralTransform> transforms,
             std::span<const std::size_t> group, TransformTarget target,
             std::span<const dft::Complex> query);

  /// min over the rectangle's t of LB_t(x) less its rounding allowance,
  /// clamped at 0: a lower bound of every t's distance between the
  /// candidate with indexed coefficients `x` (Dataset::coefficients) and
  /// the query. The k-NN search keys its leaf entries by it.
  double Min(std::span<const dft::Complex> x) const;

  /// True when no transformation of the rectangle can bring the candidate
  /// within `eps2`: Min(x) > eps2 * (1 + kRelativeMargin), decided by the
  /// screen and then per t.
  bool Prunes(std::span<const dft::Complex> x, double eps2) const;

  /// Prunes for a pair of data sequences under kBoth: the same-transform
  /// distance D(t(a), t(b)) of the self-join, with b in the query's place.
  bool PrunesPair(std::span<const dft::Complex> a,
                  std::span<const dft::Complex> b, double eps2) const;

  /// Which transformations of the rectangle let each of `count` candidates
  /// through under `eps2`. `xs` holds the candidates' indexed coefficients
  /// back to back. For each candidate that some transformation admits, in
  /// order, appends ceil(transforms / 64) words to `out`: bit i (64 per
  /// word) is set exactly when the i-th transformation's LB_t, less its
  /// rounding allowance, is at most eps2 * (1 + kRelativeMargin). A
  /// candidate is appended exactly when Prunes would keep it. Returns the
  /// number of candidates appended.
  std::size_t AppendAdmitSets(std::span<const dft::Complex> xs,
                              std::size_t count, double eps2,
                              std::vector<std::uint64_t>* out) const;

 private:
  // Writes the kBoth terms of x against q to `terms`, per coefficient
  // |X_f - Q_f|^2 then |X_f|^2 + |Q_f|^2 (nothing under kDataOnly).
  void Terms(const dft::Complex* x, const dft::Complex* q,
             double* terms) const;
  // The screen: under kBoth, whether the least-weight value of `terms`
  // exceeds `threshold`, which implies that every t's does.
  bool Screens(const double* terms, double threshold) const;
  // LB_t less its allowance for the rectangle's t-th transformation.
  double Value(std::size_t t, const dft::Complex* x, const dft::Complex* q,
               const double* terms) const;
  bool PrunesAgainst(const dft::Complex* x, const dft::Complex* q,
                     double eps2) const;

  std::size_t coefficients_ = 0;  // indexed coefficients per point
  std::size_t transforms_ = 0;    // transformations of the rectangle
  bool data_only_ = false;
  double weight_ = 0.0;  // the layout's coefficient weight w
  // Per transformation, per indexed coefficient (t-major): w |M_f|^2 for
  // kBoth, M_f for kDataOnly.
  std::vector<double> weights_;
  std::vector<dft::Complex> multipliers_;
  // kBoth screen weights per coefficient: the least w |M_f|^2 over the
  // rectangle's transformations, and the greatest.
  std::vector<double> least_;
  std::vector<double> greatest_;
  std::vector<dft::Complex> query_;  // Q_f in cartesian form
};

}  // namespace tsq::core

#endif  // TSQ_CORE_POLAR_BOUNDS_H_
