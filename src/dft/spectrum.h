#ifndef TSQ_DFT_SPECTRUM_H_
#define TSQ_DFT_SPECTRUM_H_

#include <complex>
#include <span>

#include "dft/fft.h"

namespace tsq::dft {

/// A complex value in polar form. The paper represents DFT coefficients and
/// transformation actions this way: multiplicative factors act on
/// `magnitude`, additive phase shifts act on `angle` (Section 3.1).
struct Polar {
  double magnitude = 0.0;
  /// Radians in [-pi, pi].
  double angle = 0.0;

  bool operator==(const Polar&) const = default;
};

/// Wraps an angle (radians) into [-pi, pi].
double WrapAngle(double radians);

/// Smallest absolute angular difference between two angles, in [0, pi].
double AngularDistance(double a, double b);

/// Converts a complex value to polar form (angle wrapped into [-pi, pi]).
Polar ToPolar(const Complex& value);

/// A complex spectrum as its interleaved (re, im) doubles, the layout the
/// kernel layer consumes (std::complex<double> is array-oriented-access
/// compatible: a contiguous complex vector is exactly those doubles).
inline std::span<const double> AsDoubles(std::span<const Complex> x) {
  return {reinterpret_cast<const double*>(x.data()), 2 * x.size()};
}

/// Verifies the conjugate-symmetry property of the DFT of a real sequence
/// (Eq. 6): |X_{n-f}| == |X_f| for f in [1, n). Returns the maximum absolute
/// magnitude mismatch (0 for perfectly symmetric spectra).
double SymmetryDefect(std::span<const Complex> spectrum);

}  // namespace tsq::dft

#endif  // TSQ_DFT_SPECTRUM_H_
