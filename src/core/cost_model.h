#ifndef TSQ_CORE_COST_MODEL_H_
#define TSQ_CORE_COST_MODEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/index.h"
#include "core/query.h"
#include "rstar/rect.h"
#include "transform/feature_layout.h"
#include "transform/feature_transform.h"

namespace tsq::core {

// CostConstants lives in core/query.h (ExecOptions::planner carries an
// override of it).

/// The cost function Ck of Eq. 20 evaluated on *measured* per-rectangle
/// counters:
///   Ck = C_DA * sum_i DA_all(q, r_i)
///      + CA_leaf * C_cmp * sum_i DA_leaf(q, r_i) * NT(r_i)
double CostEq20(std::span<const GroupRunStats> groups, double leaf_capacity,
                const CostConstants& constants = CostConstants());

/// Analytic R-tree disk-access estimator in the Kamel-Faloutsos style,
/// extended for transformed traversals: per level, the expected number of
/// node accesses is the node count times the probability that a random node
/// rectangle, *after* application of the transformation MBR, intersects the
/// query window — estimated from per-level average extents and the domain
/// extent. The paper (Section 4.3) observes that estimators ignoring the
/// actual rectangle distribution mispredict the best rectangle count; this
/// one keeps the dependence on the transformation rectangle's size, which is
/// what the cost-based partitioner needs.
class TreeCostEstimator {
 public:
  /// Snapshots per-level statistics of the index in one walk that reads
  /// every node once. A node-read error is returned, never aborts.
  static Result<TreeCostEstimator> Create(const SequenceIndex& index);

  /// Expected page accesses of one traversal with the given transformation
  /// group: models the executor's real filter — the group's transformation
  /// MBR applied to the average node rectangle, intersected with a query
  /// region whose widths follow BuildQueryRegion (reverse-triangle bound on
  /// magnitudes, chord bound on angles, the group's own feature spread on
  /// both) around a typical dataset member as the query proxy. Returns
  /// {expected DA_all, expected DA_leaf}.
  struct Estimate {
    double da_all = 0.0;
    double da_leaf = 0.0;
    /// Expected fraction of indexed points whose transformed image
    /// intersects the query region — the candidate selectivity. Node-level
    /// access counts saturate on small trees (a handful of wide leaves
    /// intersect every region); the per-point probability keeps
    /// discriminating there, and candidates drive both the comparison count
    /// and the record fetches.
    double hit_fraction = 0.0;
  };
  Estimate EstimateTraversal(
      std::span<const transform::FeatureTransform> group, double epsilon,
      const transform::FeatureLayout& layout) const;

  double leaf_capacity() const { return leaf_capacity_; }

  /// Nodes in the snapshot, all levels (the cap of any traversal's DA_all).
  double total_nodes() const;

  /// Points indexed at the leaf level (leaf count x average capacity) — the
  /// population `hit_fraction` applies to.
  double indexed_points() const;

  /// A fixed sample of indexed feature points: min(kSamplePoints, entries)
  /// leaf entries at an even stride over the order in which Create's walk
  /// visits them. Deterministic for a given tree and drawn by the same walk,
  /// so it costs no extra page read; the planner prices what the
  /// feature-level bound lets through on it.
  static constexpr std::size_t kSamplePoints = 256;
  std::size_t sample_size() const;
  std::span<const double> sample_point(std::size_t i) const;

 private:
  TreeCostEstimator() = default;  // for Create
  Status Init(const SequenceIndex& index);

  struct LevelStats {
    std::size_t node_count = 0;
    std::vector<double> avg_extent;   // per dimension
    std::vector<double> avg_abs_center;  // per dimension
  };
  std::vector<LevelStats> levels_;  // levels_[0] = leaf level
  rstar::Rect domain_;
  double leaf_capacity_ = 0.0;
  std::vector<double> sample_;  // sample_size() points, dimensions() each
};

/// Group-cost function for transform::PartitionCostBased: estimated Eq. 19
/// per-rectangle cost C_DA * DA_all + CA_leaf * C_cmp * DA_leaf * NT.
double EstimateGroupCost(const TreeCostEstimator& estimator,
                         std::span<const transform::FeatureTransform> group,
                         double epsilon,
                         const transform::FeatureLayout& layout,
                         const CostConstants& constants = CostConstants());

}  // namespace tsq::core

#endif  // TSQ_CORE_COST_MODEL_H_
