#include "transform/spectral_transform.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "dft/spectrum.h"
#include "kernels/kernels.h"

namespace tsq::transform {

SpectralTransform::SpectralTransform(std::string label,
                                     std::vector<dft::Complex> multipliers)
    : label_(std::move(label)), multipliers_(std::move(multipliers)) {
  TSQ_CHECK_GE(multipliers_.size(), std::size_t{1});
  const std::size_t n = multipliers_.size();
  weights_.resize(n);
  weights2_.resize(2 * n);
  mul_re2_.resize(2 * n);
  mul_im2_.resize(2 * n);
  polar_.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    const double re = multipliers_[f].real();
    const double im = multipliers_[f].imag();
    weights_[f] = re * re + im * im;
    weights2_[2 * f] = weights_[f];
    weights2_[2 * f + 1] = weights_[f];
    mul_re2_[2 * f] = re;
    mul_re2_[2 * f + 1] = re;
    mul_im2_[2 * f] = im;
    mul_im2_[2 * f + 1] = im;
    polar_[f] = dft::ToPolar(multipliers_[f]);
  }
}

SpectralTransform SpectralTransform::Identity(std::size_t n) {
  return SpectralTransform("identity",
                           std::vector<dft::Complex>(n, {1.0, 0.0}));
}

bool SpectralTransform::PreservesRealSequences(double tolerance) const {
  const std::size_t n = multipliers_.size();
  if (std::fabs(multipliers_[0].imag()) > tolerance) return false;
  for (std::size_t f = 1; f < n; ++f) {
    const dft::Complex expected = std::conj(multipliers_[f]);
    if (std::abs(multipliers_[n - f] - expected) > tolerance) return false;
  }
  return true;
}

std::vector<dft::Complex> SpectralTransform::ApplyToSpectrum(
    std::span<const dft::Complex> spectrum) const {
  TSQ_CHECK_EQ(spectrum.size(), multipliers_.size());
  std::vector<dft::Complex> out(spectrum.size());
  for (std::size_t f = 0; f < out.size(); ++f) {
    out[f] = multipliers_[f] * spectrum[f];
  }
  return out;
}

ts::Series SpectralTransform::ApplyToSeries(std::span<const double> x) const {
  TSQ_CHECK_EQ(x.size(), multipliers_.size());
  dft::FftPlan plan(x.size());
  const std::vector<dft::Complex> spectrum = plan.Forward(x);
  return plan.InverseReal(ApplyToSpectrum(spectrum));
}

double SpectralTransform::TransformedSquaredDistance(
    std::span<const dft::Complex> x, std::span<const dft::Complex> y,
    double bound) const {
  TSQ_CHECK_EQ(x.size(), multipliers_.size());
  TSQ_CHECK_EQ(y.size(), multipliers_.size());
  return kernels::WeightedSquaredDistanceWithin(
      dft::AsDoubles(x), dft::AsDoubles(y), weights2_, bound);
}

double SpectralTransform::TransformedToPlainSquaredDistance(
    std::span<const dft::Complex> x, std::span<const dft::Complex> q,
    double bound) const {
  TSQ_CHECK_EQ(x.size(), multipliers_.size());
  TSQ_CHECK_EQ(q.size(), multipliers_.size());
  return kernels::TransformedToPlainSquaredDistanceWithin(
      dft::AsDoubles(x), dft::AsDoubles(q), mul_re2_, mul_im2_, bound);
}

SpectralTransform SpectralTransform::Compose(
    const SpectralTransform& inner) const {
  TSQ_CHECK_EQ(length(), inner.length());
  std::vector<dft::Complex> multipliers(length());
  for (std::size_t f = 0; f < length(); ++f) {
    multipliers[f] = multipliers_[f] * inner.multipliers_[f];
  }
  return SpectralTransform(label_ + "(" + inner.label_ + ")",
                           std::move(multipliers));
}

FeatureTransform SpectralTransform::ToFeatureTransform(
    const FeatureLayout& layout) const {
  const std::size_t dims = layout.dimensions();
  std::vector<double> scale(dims, 1.0);
  std::vector<double> offset(dims, 0.0);
  for (std::size_t i = 0; i < layout.num_coefficients; ++i) {
    const std::size_t f = layout.coefficient(i);
    TSQ_CHECK_LT(f, multipliers_.size());
    const dft::Polar& polar = polar_[f];
    scale[layout.magnitude_dimension(i)] = polar.magnitude;
    offset[layout.magnitude_dimension(i)] = 0.0;
    scale[layout.angle_dimension(i)] = 1.0;
    offset[layout.angle_dimension(i)] = polar.angle;
  }
  return FeatureTransform(std::move(scale), std::move(offset));
}

}  // namespace tsq::transform
