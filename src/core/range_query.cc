#include "core/range_query.h"

#include <algorithm>

namespace tsq::core {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSequentialScan:
      return "seq-scan";
    case Algorithm::kStIndex:
      return "ST-index";
    case Algorithm::kMtIndex:
      return "MT-index";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

Status RejectUnresolvedAuto(const ExecOptions& options) {
  if (options.planner.algorithm == Algorithm::kAuto) {
    return Status::InvalidArgument(
        "Algorithm::kAuto must be resolved by SimilarityEngine; "
        "raw executors need a concrete algorithm");
  }
  return Status::Ok();
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  index_nodes_accessed += other.index_nodes_accessed;
  index_leaves_accessed += other.index_leaves_accessed;
  record_pages_read += other.record_pages_read;
  candidates += other.candidates;
  verified_candidates += other.verified_candidates;
  comparisons += other.comparisons;
  traversals += other.traversals;
  output_size += other.output_size;
  return *this;
}

transform::Partition EffectivePartition(
    Algorithm algorithm, const transform::Partition* planner_partition,
    const transform::Partition& spec_partition, std::size_t transforms) {
  if (algorithm == Algorithm::kStIndex) {
    return transform::PartitionSingletons(transforms);
  }
  if (planner_partition != nullptr && !planner_partition->empty()) {
    return *planner_partition;
  }
  if (spec_partition.empty()) return transform::PartitionAll(transforms);
  return spec_partition;
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.series_id != b.series_id) return a.series_id < b.series_id;
              return a.transform_index < b.transform_index;
            });
}

}  // namespace tsq::core
