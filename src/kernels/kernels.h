#ifndef TSQ_KERNELS_KERNELS_H_
#define TSQ_KERNELS_KERNELS_H_

#include <cstddef>
#include <span>

namespace tsq::kernels {

/// The instruction sets the kernel layer can dispatch to. Both variants of
/// every kernel compute the same fixed 4-lane blocked reduction (element i
/// accumulates into lane i mod 4, lanes folded as (L0+L2) + (L1+L3), no fused
/// multiply-add anywhere), so results are **bitwise identical** across ISAs.
/// Switching the active ISA can never change a query result, only its speed.
enum class Isa : int {
  kScalar = 0,  ///< portable reference, compiled without arch extensions
  kAvx2 = 2,    ///< 4-wide AVX2 (TU built with -mavx2 -mfma)
};

/// Stable lowercase name ("scalar", "avx2") used by traces, benchmarks and the
/// TSQ_KERNEL_ISA environment variable.
const char* IsaName(Isa isa);

/// True when this build + this CPU can run the variant. kScalar is always
/// supported; kAvx2 requires an x86-64 build and CPUID confirmation of
/// AVX2+FMA.
bool IsaSupported(Isa isa);

/// The fastest supported variant on this machine.
Isa BestSupportedIsa();

/// Pure resolution rule used at startup (exposed for unit tests):
/// env_value "scalar"/"avx2" selects that variant when supported; nullptr,
/// "", "auto", unknown strings, and unsupported requests all fall back to
/// `best_supported`.
Isa ResolveIsa(const char* env_value, Isa best_supported);

/// The variant every dispatched entry point below uses. Resolved once, on
/// first use, from TSQ_KERNEL_ISA and CPUID; stamped into every QueryTrace.
Isa ActiveIsa();

/// Overrides the active variant (tests and benchmarks only — e.g. measuring
/// scalar-vs-SIMD verification phases in one process). Aborts if `isa` is
/// not supported. Results are bitwise unaffected by construction.
void ForceIsaForTesting(Isa isa);

/// Result of an early-abandoning reduction. `value` is the exact full sum
/// when `consumed == n` (no abandon); when `consumed < n` the kernel stopped
/// at a 64-element checkpoint whose partial sum already exceeded the bound —
/// `value` is that partial sum, a lower bound of the true result, and
/// `value > bound` holds. Abandon checks are strict (`partial > bound`), so
/// a full sum exactly equal to the bound is never abandoned.
struct EarlyAbandonResult {
  double value = 0.0;
  std::size_t consumed = 0;
};

/// Accumulated sums of the fused weighted dot/energy pass:
/// dot = sum w_i x_i y_i, energy_x = sum w_i x_i^2, energy_y = sum w_i y_i^2.
struct WeightedDotSums {
  double dot = 0.0;
  double energy_x = 0.0;
  double energy_y = 0.0;
};

/// One ISA variant's raw kernel implementations: the three reductions a
/// query runs per candidate — Eq. 12 verification of range and k-NN queries,
/// its transformed-to-plain form for the data-only target, and the join's
/// frequency-domain correlation. All pointers take raw double arrays (complex
/// data is passed as its interleaved re,im doubles — `n` always counts
/// doubles, so a length-m complex vector passes n = 2m).
/// `mul_re`/`mul_im` are the *component-duplicated* multiplier arrays
/// ([re0, re0, re1, re1, ...]) cached by transform::SpectralTransform.
///
/// The weighted kernel evaluates a group: `w` points at `count` weight
/// vectors (each read for its first n doubles; the dispatcher checks their
/// lengths) and `out[t]` receives the early-abandoning sum of weight vector
/// t against the one `bound`, bit for bit (value and consumed) what the
/// group {w[t]} of one writes. A single distance is a group of one.
struct KernelTable {
  void (*weighted_squared_distance_within)(const double* x, const double* y,
                                           const std::span<const double>* w,
                                           std::size_t count, std::size_t n,
                                           double bound,
                                           EarlyAbandonResult* out);
  EarlyAbandonResult (*transformed_to_plain_within)(const double* x,
                                                    const double* q,
                                                    const double* mul_re,
                                                    const double* mul_im,
                                                    std::size_t n,
                                                    double bound);
  WeightedDotSums (*weighted_dot_sums)(const double* x, const double* y,
                                       const double* w, std::size_t n);
};

/// The raw table of one variant (aborts if unsupported). Tests use this to
/// compare variants bitwise without touching the process-wide dispatch.
const KernelTable& TableFor(Isa isa);

// ---------------------------------------------------------------------------
// Dispatched entry points. These are what production code calls: they route
// through the active variant and maintain the engine.kernels.* metrics
// (calls, elements processed, early abandons).
// ---------------------------------------------------------------------------

/// sum_i w_i * (x_i - y_i)^2 — Eq. 12 with precomputed |M_f|^2 weights when
/// called on interleaved complex components with duplicated weights (k-NN
/// verification, the ordered range path's probes, the distance join).
/// Early-abandoning: returns the exact sum when it is <= bound (and often
/// when slightly above); any return value > bound means "no match", whether
/// exact or abandoned partial. At bound = +inf it never abandons and always
/// returns the exact sum. See EarlyAbandonResult for the contract. The
/// group of one of WeightedSquaredDistancesWithin.
double WeightedSquaredDistanceWithin(std::span<const double> x,
                                     std::span<const double> y,
                                     std::span<const double> w, double bound);

/// The same sum for a group of weight vectors in one pass over x and y
/// (range verification: one candidate against every transformation of its
/// rectangle). `out[t]` is bit for bit what a group of one on `w[t]` writes:
/// the value WeightedSquaredDistanceWithin(x, y, w[t], bound) returns, and
/// the elements it consumed. x, y and every w[t] have one length, and `out`
/// has one entry per weight vector. Counted per weight vector: `w.size()`
/// calls, the sum of `consumed` elements, one early abandon per abandoned
/// vector.
void WeightedSquaredDistancesWithin(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const std::span<const double>> w,
                                    double bound,
                                    std::span<EarlyAbandonResult> out);

/// sum_f |M_f * X_f - Q_f|^2 over interleaved complex doubles, with the
/// multiplier passed as duplicated component arrays (verification when only
/// the data side is transformed). Early-abandoning, with the contract of
/// WeightedSquaredDistanceWithin.
double TransformedToPlainSquaredDistanceWithin(std::span<const double> x,
                                               std::span<const double> q,
                                               std::span<const double> mul_re,
                                               std::span<const double> mul_im,
                                               double bound);

/// Fused weighted dot + energies in one pass (the correlation join's
/// frequency-domain correlation).
WeightedDotSums WeightedDotEnergies(std::span<const double> x,
                                    std::span<const double> y,
                                    std::span<const double> w);

}  // namespace tsq::kernels

#endif  // TSQ_KERNELS_KERNELS_H_
