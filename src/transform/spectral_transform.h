#ifndef TSQ_TRANSFORM_SPECTRAL_TRANSFORM_H_
#define TSQ_TRANSFORM_SPECTRAL_TRANSFORM_H_

#include <complex>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "dft/fft.h"
#include "dft/spectrum.h"
#include "transform/feature_layout.h"
#include "transform/feature_transform.h"
#include "ts/series.h"

namespace tsq::transform {

/// A linear transformation of time sequences expressed as a per-DFT-
/// coefficient complex multiplier.
///
/// Every transformation the paper uses — m-day moving average, momentum,
/// time shift, scaling, inversion — is a circular convolution with a real
/// kernel (or a scalar multiple), hence acts on the spectrum as
/// X'_f = M_f * X_f (Eq. 5). In the paper's polar real-vector encoding
/// t = (a, b) this is a_mag = |M_f|, b_mag = 0 on magnitudes and
/// a_ang = 1, b_ang = arg(M_f) on angles (Section 3.1.1).
///
/// The class carries the full-length multiplier vector, so it can transform
/// complete sequences (the exact post-processing step of Algorithm 1) and
/// can be projected onto any FeatureLayout for the index-level machinery.
class SpectralTransform {
 public:
  /// `multipliers[f]` scales DFT coefficient f. `label` is used in query
  /// results and diagnostics.
  SpectralTransform(std::string label, std::vector<dft::Complex> multipliers);

  /// The identity transformation of length n.
  static SpectralTransform Identity(std::size_t n);

  const std::string& label() const { return label_; }
  std::size_t length() const { return multipliers_.size(); }
  std::span<const dft::Complex> multipliers() const { return multipliers_; }
  dft::Complex multiplier(std::size_t f) const { return multipliers_[f]; }

  /// True when the multipliers satisfy M_{n-f} == conj(M_f), i.e. the
  /// transformation maps real sequences to real sequences. Required for the
  /// symmetry-property distance doubling to stay a valid lower bound.
  bool PreservesRealSequences(double tolerance = 1e-9) const;

  /// Applies the transformation to a spectrum: element-wise multiply.
  std::vector<dft::Complex> ApplyToSpectrum(
      std::span<const dft::Complex> spectrum) const;

  /// Applies the transformation to a time-domain sequence via FFT.
  ts::Series ApplyToSeries(std::span<const double> x) const;

  /// Squared Euclidean distance between the transformed versions of two
  /// spectra, computed directly in the frequency domain (Parseval):
  ///   D^2(t(x), t(y)) = sum_f |M_f|^2 * |X_f - Y_f|^2
  /// (Eq. 12), using the |M_f|^2 weight vector cached at construction.
  /// Early-abandoning past `bound`: exact whenever the result is <= bound;
  /// any value > bound (exact or abandoned partial sum) means "no match".
  /// The default bound never abandons. See kernels::EarlyAbandonResult for
  /// the checkpoint contract.
  double TransformedSquaredDistance(
      std::span<const dft::Complex> x, std::span<const dft::Complex> y,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// Squared Euclidean distance between the transformed data sequence and a
  /// plain (untransformed) query:
  ///   D^2(t(x), q) = sum_f |M_f X_f - Q_f|^2.
  /// This is the SIGMOD'97-style semantics ("find sequences whose
  /// transformed version is similar to the query"), under which unitary
  /// transformations like time shifts are meaningful — applying a shift to
  /// both sides would cancel out. Early-abandoning past `bound`, with the
  /// contract of TransformedSquaredDistance.
  double TransformedToPlainSquaredDistance(
      std::span<const dft::Complex> x, std::span<const dft::Complex> q,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// |M_f|^2 per coefficient, precomputed at construction (Eq. 12 weights).
  std::span<const double> squared_magnitudes() const { return weights_; }

  /// The same weights duplicated per complex component
  /// ([w0, w0, w1, w1, ...], length 2n) — the layout the kernel layer
  /// consumes for interleaved complex data.
  std::span<const double> component_squared_magnitudes() const {
    return weights2_;
  }

  /// Composition (this after inner): multiplier product. Exact counterpart
  /// of Eq. 10 for multiplicative transformations. Requires equal lengths.
  SpectralTransform Compose(const SpectralTransform& inner) const;

  /// Projects the transformation onto index feature space (Section 3.1):
  /// per retained coefficient, magnitude dims get (|M_f|, 0) and angle dims
  /// get (1, arg(M_f)); mean/stddev dims are identity.
  FeatureTransform ToFeatureTransform(const FeatureLayout& layout) const;

 private:
  std::string label_;
  std::vector<dft::Complex> multipliers_;
  // Caches derived from multipliers_ at construction (so Compose products
  // get them too), sized for the kernel layer's interleaved-double view:
  // weights_[f] = |M_f|^2; weights2_/mul_re2_/mul_im2_ are the
  // component-duplicated arrays ([v0, v0, v1, v1, ...], length 2n) the
  // kernels consume; polar_ keeps the exact dft::ToPolar results so
  // ToFeatureTransform stays bitwise identical to recomputation.
  std::vector<double> weights_;
  std::vector<double> weights2_;
  std::vector<double> mul_re2_;
  std::vector<double> mul_im2_;
  std::vector<dft::Polar> polar_;
};

}  // namespace tsq::transform

#endif  // TSQ_TRANSFORM_SPECTRAL_TRANSFORM_H_
