#ifndef TSQ_PLAN_PLANNER_H_
#define TSQ_PLAN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/cost_model.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/join_query.h"
#include "core/knn_query.h"
#include "core/query.h"
#include "core/query_spec.h"
#include "obs/trace.h"
#include "plan/plan_cache.h"
#include "transform/partition.h"

namespace tsq::plan {

/// A fully resolved execution plan for one query: the concrete algorithm to
/// run, the planner-chosen MT partition (empty for scan / ST / spec-supplied
/// partitions), the constants the estimates were computed with, and the
/// trace skeleton listing every candidate considered. Immutable once built —
/// the plan cache shares one instance across queries.
struct PlanDecision {
  core::Algorithm algorithm = core::Algorithm::kMtIndex;
  transform::Partition partition;
  double estimated_cost = 0.0;
  core::CostConstants constants;
  /// planned = true, cache_hit = false, candidates filled; the engine copies
  /// this into the result's QueryTrace and then sets cache_hit/actual_cost.
  obs::PlannerTrace trace;
};

/// Outcome of one Plan() call: the (possibly cached) decision plus whether
/// it came out of the plan cache.
struct Planned {
  std::shared_ptr<const PlanDecision> decision;
  bool cache_hit = false;
};

/// The cost-based query planner (the optimizer the paper's Section 5 argues
/// for): given a query spec, it enumerates candidate plans — sequential
/// scan, ST-index, and MT-index with k in {1..16} rectangles from each
/// partitioning family (packed, contiguous, clustered; a partition equal to
/// one already priced is skipped) — prices each with the Eq. 18-20 cost
/// model against a per-epoch snapshot of the index (TreeCostEstimator), and
/// returns the cheapest. A range rectangle's fetches and comparisons are
/// priced by what the feature-level bound admits on the snapshot's feature
/// sample; k-NN and join plans keep the analytic rectangle-test estimate.
///
/// State it maintains, all lazily and behind one mutex (Plan() is safe to
/// call from concurrent Execute() calls):
///  * the index snapshot with its feature sample, rebuilt when the epoch
///    changes (Insert/Remove);
///  * calibrated CostConstants — C_cmp measured as the ratio of one full
///    sequence comparison to one record-page fetch, re-measured after
///    SetSimulatedDiskLatency;
///  * a bounded LRU plan cache (64 plans) keyed on (transform-set
///    signature, epsilon band, transform target, spec/planner knobs, index
///    epoch), with engine.planner.* metrics.
///
/// Planning I/O (snapshot + calibration page reads) goes through the normal
/// counted read paths; benchmarks that meter I/O should warm the planner up
/// (one kAuto query) before ResetIoStats().
class Planner {
 public:
  Planner(const core::Dataset& dataset, const core::SequenceIndex& index);

  /// Signals an index mutation (Insert/Remove): invalidates the snapshot and
  /// every cached plan. Guarded by the planner mutex, so it is safe
  /// concurrently with Plan(); the engine additionally calls it only under
  /// its write lock (with queries drained), which is what guarantees no
  /// cached plan was ever priced against a half-committed tree.
  void BumpEpoch();
  std::uint64_t epoch() const;

  /// Drops the calibrated constants (simulated disk latency changed).
  void InvalidateCalibration();

  /// The constants Plan() would use absent an override: calibrated on first
  /// use, then cached.
  core::CostConstants CalibratedConstants();

  /// Resolves `options` (typically algorithm == kAuto) into a concrete plan
  /// for the given spec. A forced concrete algorithm short-circuits into a
  /// single-candidate decision without planning. Thread-safe.
  Result<Planned> Plan(const core::RangeQuerySpec& spec,
                       const core::PlannerOptions& options);
  Result<Planned> Plan(const core::KnnQuerySpec& spec,
                       const core::PlannerOptions& options);
  Result<Planned> Plan(const core::JoinQuerySpec& spec,
                       const core::PlannerOptions& options);

  /// Plans a whole batch under ONE mutex acquisition — one snapshot/
  /// calibration check amortized over every spec, and no plan-cache
  /// interleaving with concurrent planners mid-batch. Entry i is exactly
  /// what Plan(*specs[i], options) would have returned at this epoch: both
  /// go through the same per-kind dispatch.
  std::vector<Result<Planned>> PlanBatch(
      const std::vector<const core::QuerySpec*>& specs,
      const core::PlannerOptions& options);

 private:
  enum class QueryKind { kRange = 0, kKnn = 1, kJoin = 2 };

  // All of these require mu_ held.
  // The per-kind dispatch behind Plan() and PlanBatch(): what the planner
  // prices for a spec of each kind.
  Result<Planned> PlanSpecLocked(const core::RangeQuerySpec& spec,
                                 const core::PlannerOptions& options);
  Result<Planned> PlanSpecLocked(const core::KnnQuerySpec& spec,
                                 const core::PlannerOptions& options);
  Result<Planned> PlanSpecLocked(const core::JoinQuerySpec& spec,
                                 const core::PlannerOptions& options);
  Result<const core::TreeCostEstimator*> SnapshotLocked();
  core::CostConstants CalibrateLocked();
  // A forced concrete algorithm short-circuits into a single-candidate
  // decision; kAuto enumerates and prices the candidate plans.
  Result<Planned> PlanLocked(QueryKind kind,
                             const std::vector<transform::SpectralTransform>&
                                 transforms,
                             const transform::Partition& spec_partition,
                             double epsilon, bool use_ordering,
                             core::TransformTarget target,
                             const core::PlannerOptions& options);

  const core::Dataset& dataset_;
  const core::SequenceIndex& index_;

  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::uint64_t snapshot_epoch_ = 0;
  std::optional<core::TreeCostEstimator> snapshot_;
  std::optional<core::CostConstants> calibrated_;
  PlanCache cache_;
};

}  // namespace tsq::plan

#endif  // TSQ_PLAN_PLANNER_H_
