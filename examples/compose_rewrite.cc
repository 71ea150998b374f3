// Query rewriting with transformation composition (Section 3.3): a query
// phrased as a *sequence* of transformation sets -- "apply an s-day shift,
// then an m-day moving average" -- rewrites via Eq. 10/11 into a flat set
// that the MT-index machinery evaluates in a handful of index traversals.
// The example also shows the ordering optimization of Section 4.4 on a scale
// family, and the cost-based partitioner choosing MBR groups.
//
// Build & run:   ./build/examples/compose_rewrite

#include <cstdio>

#include "common/stopwatch.h"
#include "transform/partition.h"
#include "tsq.h"

namespace {

using tsq::core::Algorithm;

}  // namespace

int main() {
  std::printf("Query rewriting, ordering and cost-based partitioning\n");
  std::printf("=====================================================\n\n");
  const std::size_t n = 128;
  tsq::ts::StockMarketConfig config;
  config.num_series = 600;
  tsq::core::SimilarityEngine engine(tsq::ts::GenerateStockMarket(config));

  // --- 1. Composition: shift 0..5 then MA 5..12 --------------------------
  const auto shifts = tsq::transform::ShiftRange(n, 0, 5);
  const auto mvs = tsq::transform::MovingAverageRange(n, 5, 12);
  tsq::core::RangeQuerySpec spec;
  spec.query = tsq::ts::Denormalize(engine.dataset().normal(17));
  spec.transforms = tsq::transform::ComposeSpectralSets(shifts, mvs);
  spec.epsilon = tsq::ts::CorrelationToDistanceThreshold(0.96, n);
  std::printf("composed set: %zu shifts x %zu windows = %zu transformations\n",
              shifts.size(), mvs.size(), spec.transforms.size());

  const auto flat = engine.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  if (!flat.ok()) {
    std::printf("query failed: %s\n", flat.status().ToString().c_str());
    return 1;
  }
  std::printf("one-MBR MT-index: %llu disk accesses, %llu comparisons, "
              "%zu matches\n\n",
              static_cast<unsigned long long>(flat->stats().disk_accesses()),
              static_cast<unsigned long long>(flat->stats().comparisons),
              flat->range()->matches.size());

  // --- 2. Partitioning choices over the composed set ---------------------
  std::printf("%-22s %10s %12s %12s\n", "partitioning", "groups",
              "disk acc.", "comparisons");
  const auto report = [&](const char* name,
                          tsq::transform::Partition partition) {
    tsq::core::RangeQuerySpec run = spec;
    run.partition = std::move(partition);
    const auto result = engine.Execute(run, {.planner = {.algorithm = Algorithm::kMtIndex}});
    if (!result.ok()) return;
    std::printf("%-22s %10zu %12llu %12llu\n", name, run.partition.size(),
                static_cast<unsigned long long>(result->stats().disk_accesses()),
                static_cast<unsigned long long>(result->stats().comparisons));
  };
  report("single MBR",
         tsq::transform::PartitionAll(spec.transforms.size()));
  report("8 per MBR",
         tsq::transform::PartitionBySize(spec.transforms.size(), 8));
  report("singletons (ST)",
         tsq::transform::PartitionSingletons(spec.transforms.size()));

  // Cost-based DP over the analytic estimator.
  std::vector<tsq::transform::FeatureTransform> fts;
  for (const auto& t : spec.transforms) {
    fts.push_back(t.ToFeatureTransform(engine.dataset().layout()));
  }
  const auto estimator = tsq::core::TreeCostEstimator::Create(engine.index());
  if (!estimator.ok()) {
    std::printf("index snapshot failed: %s\n",
                estimator.status().ToString().c_str());
    return 1;
  }
  const auto partition = tsq::transform::PartitionCostBased(
      spec.transforms.size(), [&](std::size_t first, std::size_t last) {
        const std::span<const tsq::transform::FeatureTransform> group(
            fts.data() + first, last - first + 1);
        return tsq::core::EstimateGroupCost(*estimator, group, spec.epsilon,
                                            engine.dataset().layout());
      });
  report("cost-based DP", partition);

  // --- 3. Ordering: scale factors + binary search (Section 4.4) ----------
  std::printf("\nOrdered scale family 2..100 (Lemma 2) with binary-search "
              "post-processing:\n");
  tsq::core::RangeQuerySpec scale_spec;
  scale_spec.query = tsq::ts::Denormalize(engine.dataset().normal(3));
  scale_spec.transforms = tsq::transform::ScaleRange(n, 2.0, 100.0, 1.0);
  scale_spec.epsilon = 40.0;
  for (const bool use_ordering : {false, true}) {
    scale_spec.use_ordering = use_ordering;
    tsq::Stopwatch watch;
    const auto result = engine.Execute(
        scale_spec, {.planner = {.algorithm = Algorithm::kSequentialScan}});
    if (!result.ok()) continue;
    std::printf("  %-14s %8llu comparisons (%zu matches, %.1f ms)\n",
                use_ordering ? "binary search" : "linear sweep",
                static_cast<unsigned long long>(result->stats().comparisons),
                result->range()->matches.size(), watch.ElapsedMillis());
  }
  return 0;
}
