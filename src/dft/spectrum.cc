#include "dft/spectrum.h"

#include <cmath>
#include <numbers>

namespace tsq::dft {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

double WrapAngle(double radians) {
  double wrapped = std::fmod(radians + kPi, kTwoPi);
  if (wrapped < 0.0) wrapped += kTwoPi;
  return wrapped - kPi;
}

double AngularDistance(double a, double b) {
  const double diff = std::fabs(WrapAngle(a - b));
  return diff > kPi ? kTwoPi - diff : diff;
}

Polar ToPolar(const Complex& value) {
  return Polar{std::abs(value), std::arg(value)};
}

double SymmetryDefect(std::span<const Complex> spectrum) {
  const std::size_t n = spectrum.size();
  double worst = 0.0;
  for (std::size_t f = 1; f < n; ++f) {
    const double defect =
        std::fabs(std::abs(spectrum[f]) - std::abs(spectrum[n - f]));
    worst = std::max(worst, defect);
  }
  return worst;
}

}  // namespace tsq::dft
