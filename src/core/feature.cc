#include "core/feature.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.h"
#include "dft/spectrum.h"
#include "transform/transform_mbr.h"

namespace tsq::core {

namespace {
constexpr double kPi = std::numbers::pi;
// Stand-in for "unbounded" on dimensions the query does not constrain; large
// enough to cover any data, small enough to keep rect arithmetic finite.
constexpr double kUnboundedExtent = 1e300;
}  // namespace

rstar::Point ExtractFeatures(double mean, double stddev,
                             std::span<const dft::Complex> coefficients,
                             const transform::FeatureLayout& layout) {
  TSQ_CHECK_EQ(coefficients.size(), layout.num_coefficients);
  rstar::Point features(layout.dimensions(), 0.0);
  if (layout.include_mean_std) {
    features[layout.mean_dimension()] = mean;
    features[layout.stddev_dimension()] = stddev;
  }
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const dft::Polar polar = dft::ToPolar(coefficients[i]);
    features[layout.magnitude_dimension(i)] = polar.magnitude;
    features[layout.angle_dimension(i)] = polar.angle;
  }
  return features;
}

std::vector<dft::Complex> IndexedCoefficients(
    std::span<const dft::Complex> spectrum,
    const transform::FeatureLayout& layout) {
  std::vector<dft::Complex> out(layout.num_coefficients);
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t f = layout.coefficient(i);
    TSQ_CHECK_LT(f, spectrum.size());
    out[i] = spectrum[f];
  }
  return out;
}

double SafeAngleHalfWidth(double epsilon_f, double min_query_magnitude) {
  TSQ_CHECK_GE(epsilon_f, 0.0);
  const double m = min_query_magnitude;
  if (m <= epsilon_f) return kPi;
  const double denom = 2.0 * std::sqrt((m - epsilon_f) * m);
  const double ratio = std::min(1.0, epsilon_f / denom);
  return 2.0 * std::asin(ratio);
}

rstar::Rect BuildQueryRegion(
    const rstar::Point& query_features,
    std::span<const transform::FeatureTransform> group, double epsilon,
    const transform::FeatureLayout& layout) {
  TSQ_CHECK(!group.empty());
  TSQ_CHECK_EQ(query_features.size(), layout.dimensions());
  const std::size_t dims = layout.dimensions();
  std::vector<double> low(dims), high(dims);

  if (layout.include_mean_std) {
    low[layout.mean_dimension()] = -kUnboundedExtent;
    high[layout.mean_dimension()] = kUnboundedExtent;
    low[layout.stddev_dimension()] = -kUnboundedExtent;
    high[layout.stddev_dimension()] = kUnboundedExtent;
  }

  const double eps_f = epsilon / std::sqrt(layout.coefficient_weight());
  std::vector<double> mags(group.size());
  std::vector<double> angles(group.size());
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t md = layout.magnitude_dimension(i);
    const std::size_t ad = layout.angle_dimension(i);
    // Transformed query features for every transformation in the group.
    for (std::size_t t = 0; t < group.size(); ++t) {
      mags[t] = group[t].scale(md) * query_features[md] + group[t].offset(md);
      angles[t] =
          group[t].scale(ad) * query_features[ad] + group[t].offset(ad);
    }
    const auto [mag_min_it, mag_max_it] =
        std::minmax_element(mags.begin(), mags.end());
    low[md] = std::max(0.0, *mag_min_it - eps_f);
    high[md] = *mag_max_it + eps_f;

    const auto [ang_lo, ang_hi] = transform::SmallestCircularInterval(angles);
    const double half_width = SafeAngleHalfWidth(eps_f, *mag_min_it);
    low[ad] = ang_lo - half_width;
    high[ad] = ang_hi + half_width;
  }
  return rstar::Rect(std::move(low), std::move(high));
}

}  // namespace tsq::core
