#ifndef TSQ_TESTING_WORKLOAD_GENERATOR_H_
#define TSQ_TESTING_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "testing/oracle.h"
#include "ts/generate.h"

namespace tsq::testing {

/// One generated query case: a programmatic spec plus the equivalent query-
/// language text. Parsing and compiling `lang_text` against the same engine
/// must produce a spec that executes identically to `spec` (the lang
/// round-trip test's contract).
struct WorkloadCase {
  core::QuerySpec spec;
  std::string lang_text;
  std::string description;
};

/// Deterministic workload factory: one RNG seed fixes the dataset and the
/// entire case sequence, so any fuzzer failure is reproducible from
/// `--seed=S --case=K` alone.
///
/// Case k cycles through range / k-NN / join queries over a menu of
/// transformation sets that covers the paper's repertoire: moving-average
/// ranges (Fig. 6), composed momentum-then-shift pipelines (Example 1.2,
/// Eq. 11), two-cluster sets built from an inverted copy (Fig. 9, Section
/// 5.2), ordered scale chains (Section 4.4), weighted/exponential moving
/// averages, band-pass and second-difference filters — each optionally
/// partitioned into MBR groups (contiguous, fixed-size or cluster-aware).
///
/// Thresholds are picked *boundary-free*: the case is first evaluated by the
/// Oracle, and epsilon / min_correlation / k are placed in the middle of a
/// clearly separated gap of the sorted distance (or correlation) curve, so
/// engine-vs-oracle floating-point noise can never flip a match across the
/// threshold.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }

  /// The seed-derived dataset recipe (correlated stock-market walks; size
  /// and length vary with the seed so different seeds exercise different
  /// tree shapes and record layouts).
  ts::StockMarketConfig dataset_config() const;

  /// Generates the dataset (deterministic in the seed).
  std::vector<ts::Series> MakeSeries() const;

  /// Builds case `index` against `engine` (which must have been constructed
  /// from MakeSeries()) and `oracle` (built over the same dataset).
  /// Deterministic in (seed, index).
  WorkloadCase MakeCase(std::size_t index,
                        const core::SimilarityEngine& engine,
                        const Oracle& oracle) const;

  /// Builds query-transformation case `index`: a range (even `index`) or
  /// k-NN (odd) query whose query series carries a fixed, real-preserving
  /// query_transform — momentum against a data-side shift set (Example 1.2,
  /// TransformTarget::kDataOnly) or a moving average against a set of
  /// moving averages (kBoth). Thresholds and k are boundary-free as in
  /// MakeCase. The case is drawn from its own seeded stream, so MakeCase's
  /// cases do not change. The query language has no query transformation,
  /// so `lang_text` is empty. Deterministic in (seed, index).
  WorkloadCase MakeQueryTransformCase(std::size_t index,
                                      const core::SimilarityEngine& engine,
                                      const Oracle& oracle) const;

 private:
  std::uint64_t seed_;
};

}  // namespace tsq::testing

#endif  // TSQ_TESTING_WORKLOAD_GENERATOR_H_
