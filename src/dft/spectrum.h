#ifndef TSQ_DFT_SPECTRUM_H_
#define TSQ_DFT_SPECTRUM_H_

#include <complex>
#include <span>
#include <vector>

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

/// Converts polar form back to a complex value.
Complex FromPolar(const Polar& polar);

/// Converts a spectrum to polar form element-wise.
std::vector<Polar> SpectrumToPolar(std::span<const Complex> spectrum);

/// Converts a polar spectrum back to complex form element-wise.
std::vector<Complex> SpectrumFromPolar(std::span<const Polar> spectrum);

/// Squared distance between two complex values given in polar form, computed
/// by the law of cosines: |X|^2 + |Y|^2 - 2|X||Y|cos(angleX - angleY).
double PolarSquaredDistance(const Polar& x, const Polar& y);

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
