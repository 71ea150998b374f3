#include "ts/distance.h"

#include <cmath>

#include "common/check.h"
#include "ts/series.h"

namespace tsq::ts {

double SquaredEuclideanDistance(std::span<const double> x,
                                std::span<const double> y) {
  TSQ_CHECK_EQ(x.size(), y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

double EuclideanDistance(std::span<const double> x, std::span<const double> y) {
  return std::sqrt(SquaredEuclideanDistance(x, y));
}

double CityBlockDistance(std::span<const double> x, std::span<const double> y) {
  TSQ_CHECK_EQ(x.size(), y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += std::fabs(x[i] - y[i]);
  return acc;
}

double CrossCorrelation(std::span<const double> x, std::span<const double> y) {
  TSQ_CHECK_EQ(x.size(), y.size());
  TSQ_CHECK_GE(x.size(), std::size_t{2});
  const double n = static_cast<double>(x.size());
  // One fused pass over values shifted by x[0]/y[0]. Shifting keeps the
  // sums-of-squares subtraction below well-conditioned even for series with
  // a huge mean and tiny variance, where the old three-pass
  // mean/stddev/dot formulation lost all significant digits.
  double dx = 0.0, dy = 0.0, dxx = 0.0, dyy = 0.0, dxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - x[0];
    const double e = y[i] - y[0];
    dx += d;
    dy += e;
    dxx += d * d;
    dyy += e * e;
    dxy += d * e;
  }
  const double ss_x = dxx - dx * dx / n;
  const double ss_y = dyy - dy * dy / n;
  if (ss_x <= 0.0 || ss_y <= 0.0) return 0.0;
  const double ss_xy = dxy - dx * dy / n;
  // Matches the historical convention: covariance over n, stddevs over n-1,
  // so |rho| peaks at (n-1)/n rather than 1.
  return (n - 1.0) / n * ss_xy / std::sqrt(ss_x * ss_y);
}

double CorrelationToSquaredDistance(double rho, std::size_t n) {
  const double d2 = 2.0 * (static_cast<double>(n) - 1.0 -
                           static_cast<double>(n) * rho);
  return d2 < 0.0 ? 0.0 : d2;
}

double CorrelationToDistanceThreshold(double min_correlation, std::size_t n) {
  return std::sqrt(CorrelationToSquaredDistance(min_correlation, n));
}

double SquaredDistanceToCorrelation(double squared_distance, std::size_t n) {
  TSQ_CHECK_GE(n, std::size_t{1});
  return (static_cast<double>(n) - 1.0 - squared_distance / 2.0) /
         static_cast<double>(n);
}

}  // namespace tsq::ts
