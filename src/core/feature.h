#ifndef TSQ_CORE_FEATURE_H_
#define TSQ_CORE_FEATURE_H_

#include <span>
#include <vector>

#include "dft/fft.h"
#include "rstar/rect.h"
#include "transform/feature_layout.h"
#include "transform/feature_transform.h"

namespace tsq::core {

/// The index feature vector of a sequence per the paper's Section 5 layout:
/// [mean, stddev,] then (|X_f|, angle(X_f)) for each retained coefficient f,
/// from the raw series' statistics and IndexedCoefficients of its normal
/// form's spectrum. Dataset::features and PrepareQuery both use it.
rstar::Point ExtractFeatures(double mean, double stddev,
                             std::span<const dft::Complex> coefficients,
                             const transform::FeatureLayout& layout);

/// The layout's indexed DFT coefficients of `spectrum` in cartesian form:
/// element i is spectrum[layout.coefficient(i)], copied bit for bit. The
/// dataset keeps them for every stored record (Dataset::coefficients), and
/// the feature-level bound (core::PolarBound) reads them beside the query's
/// (PreparedQuery::coefficients).
std::vector<dft::Complex> IndexedCoefficients(
    std::span<const dft::Complex> spectrum,
    const transform::FeatureLayout& layout);

/// Builds the query region ("qrect") of Algorithm 1 for one transformation
/// group, sound against Lemma 1:
///
/// The paper's step 2 builds "a search rectangle of width epsilon around q".
/// With non-identity transformations the query's own image moves, so we
/// build the MBR of the transformed query features {t(q) : t in group}
/// (smallest circular interval on angle dimensions) and expand each
/// dimension with a width that provably covers every qualifying candidate:
///
///  * magnitude dims: +- eps_f, by the reverse triangle inequality
///    (||u|-|v|| <= |u-v| <= eps_f), where eps_f = epsilon /
///    sqrt(symmetry weight) is the per-coefficient distance budget;
///  * angle dims: the chord bound |u-v| >= 2 sqrt(|u||v|) |sin(dAngle/2)|
///    gives dAngle <= 2 asin(eps_f / (2 sqrt(max(0, m-eps_f) * m))) with m
///    the smallest transformed query magnitude in the group; the full
///    circle when m <= eps_f;
///  * mean/stddev dims: unbounded (the query constrains normal forms only).
///
/// Intersection tests against this rect must use CircularIntersects.
rstar::Rect BuildQueryRegion(
    const rstar::Point& query_features,
    std::span<const transform::FeatureTransform> group, double epsilon,
    const transform::FeatureLayout& layout);

/// The sound angular half-width described above (radians, in [0, pi]).
double SafeAngleHalfWidth(double epsilon_f, double min_query_magnitude);

}  // namespace tsq::core

#endif  // TSQ_CORE_FEATURE_H_
