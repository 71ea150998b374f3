#include "dft/spectrum.h"

#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace tsq::dft {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(WrapAngleTest, IdentityInsideRange) {
  EXPECT_NEAR(WrapAngle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(WrapAngle(1.5), 1.5, 1e-12);
  EXPECT_NEAR(WrapAngle(-1.5), -1.5, 1e-12);
}

TEST(WrapAngleTest, WrapsMultiplesOfTwoPi) {
  EXPECT_NEAR(WrapAngle(2.0 * kPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(WrapAngle(-2.0 * kPi - 0.5), -0.5, 1e-12);
  EXPECT_NEAR(WrapAngle(6.0 * kPi + 1.0), 1.0, 1e-12);
}

TEST(WrapAngleTest, ResultAlwaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double wrapped = WrapAngle(rng.Uniform(-100.0, 100.0));
    EXPECT_GE(wrapped, -kPi);
    EXPECT_LE(wrapped, kPi);
  }
}

TEST(AngularDistanceTest, BasicCases) {
  EXPECT_NEAR(AngularDistance(0.0, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(AngularDistance(0.0, kPi), kPi, 1e-12);
  // Wrap-around: -3 and +3 radians are 2*pi - 6 apart.
  EXPECT_NEAR(AngularDistance(-3.0, 3.0), 2.0 * kPi - 6.0, 1e-12);
}

TEST(AngularDistanceTest, SymmetricAndBounded) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.Uniform(-kPi, kPi);
    const double b = rng.Uniform(-kPi, kPi);
    EXPECT_NEAR(AngularDistance(a, b), AngularDistance(b, a), 1e-12);
    EXPECT_LE(AngularDistance(a, b), kPi + 1e-12);
    EXPECT_GE(AngularDistance(a, b), 0.0);
  }
}

TEST(PolarTest, RoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const Complex z(rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0));
    const Polar polar = ToPolar(z);
    const Complex back = std::polar(polar.magnitude, polar.angle);
    EXPECT_LT(std::abs(z - back), 1e-10);
  }
}

TEST(SymmetryDefectTest, ZeroForRealSpectra) {
  // Conjugate-symmetric spectrum (what a real signal produces).
  std::vector<Complex> spectrum = {
      {1.0, 0.0}, {0.5, 0.25}, {0.1, -0.3}, {0.1, 0.3}, {0.5, -0.25}};
  EXPECT_NEAR(SymmetryDefect(spectrum), 0.0, 1e-12);
}

TEST(SymmetryDefectTest, PositiveForAsymmetricSpectra) {
  std::vector<Complex> spectrum = {
      {1.0, 0.0}, {2.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.5, 0.0}};
  EXPECT_GT(SymmetryDefect(spectrum), 1.0);
}

}  // namespace
}  // namespace tsq::dft
