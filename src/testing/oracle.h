#ifndef TSQ_TESTING_ORACLE_H_
#define TSQ_TESTING_ORACLE_H_

#include <vector>

#include "core/dataset.h"
#include "core/engine.h"
#include "dft/fft.h"

namespace tsq::testing {

/// Brute-force reference evaluator for the differential fuzzer.
///
/// The oracle shares nothing with the query execution path it is checking:
/// it computes its own spectra from the dataset's normal forms with its own
/// FFT plan, evaluates the Eq. 12 transformed distance with its own loops,
/// and enumerates every live sequence (or pair) directly — no index, no
/// transformation MBR, no pruning, no record-store I/O. Removed sequences
/// are skipped, matching query semantics.
///
/// Contract with the engine (what the fuzzer asserts):
///  * range:  identical (series, transform) match sets; distances within
///    tolerance. Holds for every algorithm.
///  * knn:    identical series ids in rank order; distances within
///    tolerance. Holds for every algorithm.
///  * join:   identical pair sets for kDistance mode and for the sequential
///    scan in either mode. Indexed kCorrelation joins may legitimately
///    return a *subset* (the paper's filter is not a strict lower bound for
///    correlation once transformed variances differ; see join_query.h), so
///    the fuzzer checks subset-plus-exact-values there.
class Oracle {
 public:
  explicit Oracle(const core::Dataset& dataset);

  /// The `live` mask (when non-null) overrides the dataset's tombstones:
  /// sequence i participates iff i < live->size() && (*live)[i]. This is how
  /// the mutate fuzzer re-evaluates a query at the snapshot it was pinned to
  /// — the mask is the liveness at that write version, reconstructed from
  /// the mutation log, while the dataset itself has moved on. Spectra are
  /// computed for every id at construction (tombstoned sequences keep their
  /// normal forms), so an oracle built *after* a mutation phase can replay
  /// any earlier version.
  std::vector<core::Match> Range(const core::RangeQuerySpec& spec,
                                 const std::vector<bool>* live = nullptr) const;
  std::vector<core::KnnMatch> Knn(const core::KnnQuerySpec& spec,
                                  const std::vector<bool>* live = nullptr) const;
  std::vector<core::JoinMatch> Join(const core::JoinQuerySpec& spec,
                                    const std::vector<bool>* live = nullptr) const;

  /// Every live (sequence, transformation) distance of a range query,
  /// sorted ascending and ignoring spec.epsilon — the curve the workload
  /// generator picks boundary-free thresholds from.
  std::vector<double> RangeDistances(const core::RangeQuerySpec& spec) const;

  /// Per-live-sequence best distance (min over transformations), sorted
  /// ascending — the k-NN rank curve, for picking a k with a clean gap.
  std::vector<double> KnnDistanceCurve(const core::KnnQuerySpec& spec) const;

  /// Every live pair's predicate value: distances ascending for kDistance,
  /// correlations descending for kCorrelation.
  std::vector<double> JoinValues(const core::JoinQuerySpec& spec) const;

 private:
  std::vector<dft::Complex> QuerySpectrum(
      const ts::Series& query,
      const std::optional<transform::SpectralTransform>& query_transform) const;
  double Distance2(const transform::SpectralTransform& t,
                   core::TransformTarget target,
                   std::span<const dft::Complex> x,
                   std::span<const dft::Complex> q) const;
  double Correlation(const transform::SpectralTransform& t,
                     std::span<const dft::Complex> x,
                     std::span<const dft::Complex> y) const;
  bool Live(std::size_t i, const std::vector<bool>* live) const {
    if (live == nullptr) return !dataset_->removed(i);
    return i < live->size() && (*live)[i];
  }

  const core::Dataset* dataset_;
  dft::FftPlan plan_;
  /// Spectra recomputed here from the normal forms, independent of the
  /// record store the executors fetch from.
  std::vector<std::vector<dft::Complex>> spectra_;
};

}  // namespace tsq::testing

#endif  // TSQ_TESTING_ORACLE_H_
