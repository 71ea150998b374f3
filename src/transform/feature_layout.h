#ifndef TSQ_TRANSFORM_FEATURE_LAYOUT_H_
#define TSQ_TRANSFORM_FEATURE_LAYOUT_H_

#include <cstddef>

#include "common/check.h"

namespace tsq::transform {

/// Describes how a time sequence maps to the dimensions of the
/// multidimensional index.
///
/// The paper's layout (Section 5): dimension 0 = mean of the original
/// series, dimension 1 = its standard deviation, then for each retained DFT
/// coefficient f = 1..k of the *normal form* a (magnitude, phase angle)
/// pair. Coefficient 0 is skipped because it is identically zero for normal
/// forms. The polar representation is what makes the paper's transformation
/// MBRs axis-aligned: a spectral transformation multiplies magnitudes and
/// adds to angles.
struct FeatureLayout {
  /// Store the raw series' mean and stddev as the first two dimensions.
  bool include_mean_std = true;
  /// Number of retained DFT coefficients (each contributes 2 dimensions).
  std::size_t num_coefficients = 2;
  /// Index of the first retained coefficient (1 skips the DC term).
  std::size_t first_coefficient = 1;
  /// Double each retained coefficient's contribution to distance bounds,
  /// exploiting |X_{n-f}| == |X_f| for real sequences (the symmetry-property
  /// improvement of the author's thesis, Section 2.1).
  bool use_symmetry = true;

  std::size_t dimensions() const {
    return (include_mean_std ? 2 : 0) + 2 * num_coefficients;
  }

  std::size_t mean_dimension() const {
    TSQ_DCHECK(include_mean_std);
    return 0;
  }
  std::size_t stddev_dimension() const {
    TSQ_DCHECK(include_mean_std);
    return 1;
  }

  /// Dimension holding |X_f| for the i-th retained coefficient (0-based).
  std::size_t magnitude_dimension(std::size_t i) const {
    TSQ_DCHECK(i < num_coefficients);
    return (include_mean_std ? 2 : 0) + 2 * i;
  }

  /// Dimension holding angle(X_f) for the i-th retained coefficient.
  std::size_t angle_dimension(std::size_t i) const {
    return magnitude_dimension(i) + 1;
  }

  /// DFT coefficient index of the i-th retained coefficient.
  std::size_t coefficient(std::size_t i) const {
    TSQ_DCHECK(i < num_coefficients);
    return first_coefficient + i;
  }

  /// True when dimension `d` holds a phase angle (and therefore lives on a
  /// circle: intersection tests must wrap modulo 2*pi).
  bool is_angle_dimension(std::size_t d) const {
    const std::size_t base = include_mean_std ? 2 : 0;
    return d >= base && (d - base) % 2 == 1;
  }

  /// True when dimension `d` holds a coefficient magnitude.
  bool is_magnitude_dimension(std::size_t d) const {
    const std::size_t base = include_mean_std ? 2 : 0;
    return d >= base && (d - base) % 2 == 0;
  }

  /// Weight of dimension pair (magnitude, angle) in squared-distance lower
  /// bounds: 2 when the symmetry property is exploited, else 1.
  double coefficient_weight() const { return use_symmetry ? 2.0 : 1.0; }

  /// Whether the layout's bounds are sound for sequences of length `n`.
  /// Under the symmetry property each retained coefficient f also counts
  /// its mirror n - f. That is sound only when f and n - f are two distinct
  /// coefficients that no other retained coefficient stands for:
  /// 1 <= f and 2f < n for every retained f. Without symmetry every layout
  /// whose coefficients exist is sound.
  bool SymmetrySoundFor(std::size_t n) const {
    if (!use_symmetry || num_coefficients == 0) return true;
    return first_coefficient >= 1 &&
           2 * (first_coefficient + num_coefficients - 1) < n;
  }
};

}  // namespace tsq::transform

#endif  // TSQ_TRANSFORM_FEATURE_LAYOUT_H_
