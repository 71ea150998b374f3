#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "transform/transform_mbr.h"

namespace tsq::core {

double CostEq20(std::span<const GroupRunStats> groups, double leaf_capacity,
                const CostConstants& constants) {
  double da_term = 0.0;
  double cmp_term = 0.0;
  for (const GroupRunStats& g : groups) {
    da_term += static_cast<double>(g.da_all);
    cmp_term += static_cast<double>(g.da_leaf) *
                static_cast<double>(g.transforms);
  }
  return constants.c_da * da_term +
         leaf_capacity * constants.c_cmp * cmp_term;
}

Result<TreeCostEstimator> TreeCostEstimator::Create(
    const SequenceIndex& index) {
  TreeCostEstimator estimator;
  TSQ_RETURN_IF_ERROR(estimator.Init(index));
  return estimator;
}

double TreeCostEstimator::indexed_points() const {
  if (levels_.empty()) return 0.0;
  return leaf_capacity_ * static_cast<double>(levels_.front().node_count);
}

double TreeCostEstimator::total_nodes() const {
  double nodes = 0.0;
  for (const LevelStats& level : levels_) {
    nodes += static_cast<double>(level.node_count);
  }
  return nodes;
}

Status TreeCostEstimator::Init(const SequenceIndex& index) {
  const std::size_t dims = index.tree().dimensions();
  domain_ = rstar::Rect::Empty(dims);
  bool at_root = true;
  std::size_t leaves = 0;
  std::size_t leaf_entries = 0;
  // The s-th sample id is leaf entry s * entries / wanted in walk order.
  const std::size_t entries = index.tree().size();
  const std::size_t wanted = std::min(kSamplePoints, entries);
  std::size_t next_pick = 0;  // leaf entry that becomes sample_ids_.size()
  sample_ids_.reserve(wanted);
  // One walk gathers everything: the root's rect (the walk visits the root
  // first) is the domain, the leaves give the average capacity and the
  // sample.
  const Status status =
      index.tree().VisitNodes([&](const rstar::RStarTree::NodeView& view) {
        if (view.level >= levels_.size()) {
          levels_.resize(view.level + 1);
          for (LevelStats& level : levels_) {
            if (level.avg_extent.empty()) {
              level.avg_extent.assign(dims, 0.0);
              level.avg_abs_center.assign(dims, 0.0);
            }
          }
        }
        LevelStats& level = levels_[view.level];
        ++level.node_count;
        rstar::Rect rect = view.rect(0).ToRect();
        for (std::size_t i = 1; i < view.size(); ++i) {
          rect.Enlarge(view.rect(i));
        }
        for (std::size_t d = 0; d < dims; ++d) {
          level.avg_extent[d] += rect.Extent(d);
          level.avg_abs_center[d] += std::fabs(rect.Center(d));
        }
        if (at_root) {
          domain_ = rect;
          at_root = false;
        }
        if (view.is_leaf) {
          for (std::size_t i = 0; i < view.size(); ++i) {
            if (sample_ids_.size() < wanted && leaf_entries + i == next_pick) {
              sample_ids_.push_back(view.ids[i]);
              next_pick = sample_ids_.size() * entries / wanted;
            }
          }
          ++leaves;
          leaf_entries += view.size();
        }
      });
  TSQ_RETURN_IF_ERROR(status);
  if (leaves > 0) {
    leaf_capacity_ =
        static_cast<double>(leaf_entries) / static_cast<double>(leaves);
  }
  for (LevelStats& level : levels_) {
    if (level.node_count == 0) continue;
    for (std::size_t d = 0; d < level.avg_extent.size(); ++d) {
      level.avg_extent[d] /= static_cast<double>(level.node_count);
      level.avg_abs_center[d] /= static_cast<double>(level.node_count);
    }
  }
  return Status::Ok();
}

TreeCostEstimator::Estimate TreeCostEstimator::EstimateTraversal(
    std::span<const transform::FeatureTransform> group, double epsilon,
    const transform::FeatureLayout& layout) const {
  Estimate estimate;
  if (levels_.empty() || group.empty()) return estimate;
  const std::size_t dims = layout.dimensions();
  const transform::TransformMbr mbr(group, layout);
  // Leaf-level typical values stand in for the (unknown at planning time)
  // query's features: queries are dataset-like sequences, so the average
  // absolute leaf-node center is a serviceable |q_d| proxy.
  const LevelStats& leaf = levels_.front();

  // Per-dimension extent of the query region this group would produce,
  // mirroring BuildQueryRegion: the spread of the transformed query features
  // across the group (the mult-/add-MBR applied to a typical query), widened
  // by the reverse-triangle bound (2 epsilon) on magnitude dimensions and by
  // the chord bound (2 asin(eps / 2|q_d|) half-width) on angle dimensions.
  // A negative sentinel marks dimensions the region leaves unbounded.
  std::vector<double> window(dims, -1.0);
  for (std::size_t d = 0; d < dims; ++d) {
    if (layout.include_mean_std &&
        (d == layout.mean_dimension() || d == layout.stddev_dimension())) {
      continue;  // the query region is unbounded on these dimensions
    }
    const double mult_spread = mbr.mult_high(d) - mbr.mult_low(d);
    const double add_spread = mbr.add_high(d) - mbr.add_low(d);
    if (layout.is_angle_dimension(d)) {
      // The paired magnitude dimension sits right below the angle one.
      const double radius = std::max(leaf.avg_abs_center[d - 1], 1e-9);
      const double half_width =
          2.0 * std::asin(std::min(1.0, 0.5 * epsilon / radius));
      window[d] = add_spread + 2.0 * half_width;
    } else {
      window[d] = mult_spread * leaf.avg_abs_center[d] + 2.0 * epsilon;
    }
  }

  for (std::size_t level = 0; level < levels_.size(); ++level) {
    const LevelStats& stats = levels_[level];
    if (stats.node_count == 0) continue;
    double probability = 1.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double domain = domain_.Extent(d);
      if (domain <= 0.0) continue;  // degenerate dimension filters nothing
      if (window[d] < 0.0) continue;  // unbounded: filters nothing
      // Extent of the average node rectangle after the transformation MBR:
      // the multiplicative interval stretches positions by (Mh - Ml)*|c|
      // and widths by the mid multiplier; the additive interval adds its
      // own width.
      const double mult_mid = 0.5 * (mbr.mult_low(d) + mbr.mult_high(d));
      const double mult_spread = mbr.mult_high(d) - mbr.mult_low(d);
      const double add_spread = mbr.add_high(d) - mbr.add_low(d);
      const double transformed_extent =
          std::fabs(mult_mid) * stats.avg_extent[d] +
          mult_spread * stats.avg_abs_center[d] + add_spread;
      probability *=
          std::min(1.0, (transformed_extent + window[d]) / domain);
    }
    const double accesses =
        static_cast<double>(stats.node_count) * probability;
    estimate.da_all += accesses;
    if (level == 0) estimate.da_leaf += accesses;
  }

  // Per-point hit probability: a leaf *entry* is a point (zero extent); its
  // transformed image spreads only by the group's mult/add intervals around
  // the typical feature value.
  double point_probability = 1.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double domain = domain_.Extent(d);
    if (domain <= 0.0) continue;
    if (window[d] < 0.0) continue;
    const double mult_spread = mbr.mult_high(d) - mbr.mult_low(d);
    const double add_spread = mbr.add_high(d) - mbr.add_low(d);
    const double image_extent =
        mult_spread * leaf.avg_abs_center[d] + add_spread;
    point_probability *= std::min(1.0, (image_extent + window[d]) / domain);
  }
  estimate.hit_fraction = point_probability;
  return estimate;
}

double EstimateGroupCost(const TreeCostEstimator& estimator,
                         std::span<const transform::FeatureTransform> group,
                         double epsilon,
                         const transform::FeatureLayout& layout,
                         const CostConstants& constants) {
  const TreeCostEstimator::Estimate estimate =
      estimator.EstimateTraversal(group, epsilon, layout);
  // Eq. 19 with CA_leaf * DA_leaf sharpened to the expected candidate count:
  // on small trees every leaf page intersects every region and the paper's
  // leaf-page bound stops discriminating, while the per-point hit fraction
  // still does.
  const double candidates =
      std::min(estimate.hit_fraction * estimator.indexed_points(),
               estimator.indexed_points());
  return constants.c_da * estimate.da_all +
         constants.c_cmp * candidates * static_cast<double>(group.size());
}

}  // namespace tsq::core
