#include "plan/planner.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "../core/test_util.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/explain.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"

namespace tsq::plan {
namespace {

constexpr std::size_t kLength = 128;

// The Fig. 9 workload in miniature: moving averages plus their inversions
// form two well-separated clusters of transformation points, so any single
// rectangle packed across the gap filters terribly.
std::vector<transform::SpectralTransform> TwoClusterTransforms() {
  std::vector<transform::SpectralTransform> transforms =
      transform::MovingAverageRange(kLength, 6, 17);
  const auto plain = transforms;
  for (const auto& t : plain) {
    transforms.push_back(transform::Inverted(t));
  }
  return transforms;
}

core::RangeQuerySpec TwoClusterSpec(const core::SimilarityEngine& engine) {
  core::RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = TwoClusterTransforms();
  // Tighter than the paper's 0.96: at a selective threshold the clustered
  // rectangles prune on the angle dimensions while the packed MBR (whose
  // angle-add interval spans the inversion gap) cannot — the regime Fig. 9
  // is about.
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.99, kLength);
  return spec;
}

// The paper's constants; pinning them keeps every plan decision in this file
// independent of the machine the test runs on.
constexpr core::CostConstants kPaperConstants{1.0, 0.4};

core::PlannerOptions DeterministicPlannerOptions() {
  core::PlannerOptions options;
  options.cost_constants_override = kPaperConstants;
  return options;
}

// Estimated Eq. 20 cost of running `partition` (sum of Eq. 19 over groups).
double EstimatedCost(const core::SimilarityEngine& engine,
                     const std::vector<transform::SpectralTransform>& set,
                     const transform::Partition& partition, double epsilon) {
  const auto estimator = core::TreeCostEstimator::Create(engine.index());
  EXPECT_TRUE(estimator.ok());
  const transform::FeatureLayout& layout = engine.dataset().layout();
  std::vector<transform::FeatureTransform> fts;
  for (const auto& t : set) fts.push_back(t.ToFeatureTransform(layout));
  double total = 0.0;
  for (const std::vector<std::size_t>& group : partition) {
    std::vector<transform::FeatureTransform> group_fts;
    for (const std::size_t t : group) group_fts.push_back(fts[t]);
    total += core::EstimateGroupCost(*estimator, group_fts, epsilon, layout,
                                     kPaperConstants);
  }
  return total;
}

// Measured Eq. 20 cost of actually running `partition` under forced
// MT-index.
double MeasuredCost(const core::SimilarityEngine& engine,
                    core::RangeQuerySpec spec,
                    const transform::Partition& partition) {
  spec.partition = partition;
  core::ExecOptions options;
  options.planner.algorithm = core::Algorithm::kMtIndex;
  const auto result = engine.Execute(spec, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return core::CostEq20(
      result->group_stats,
      core::TreeCostEstimator::Create(engine.index())->leaf_capacity(),
      kPaperConstants);
}

TEST(PlannerTest, EstimatorRanksPartitionsLikeMeasuredCost) {
  core::SimilarityEngine engine(core::testutil::Stocks(400, kLength, 91));
  const core::RangeQuerySpec spec = TwoClusterSpec(engine);
  const std::size_t count = spec.transforms.size();

  std::vector<transform::FeatureTransform> fts;
  for (const auto& t : spec.transforms) {
    fts.push_back(t.ToFeatureTransform(engine.dataset().layout()));
  }
  const transform::Partition packed = transform::PartitionAll(count);
  const transform::Partition clustered =
      transform::PartitionByClusters(fts, count / 2);
  ASSERT_GE(clustered.size(), 2u);  // the gap was detected

  const double est_packed =
      EstimatedCost(engine, spec.transforms, packed, spec.epsilon);
  const double est_clustered =
      EstimatedCost(engine, spec.transforms, clustered, spec.epsilon);
  const double run_packed = MeasuredCost(engine, spec, packed);
  const double run_clustered = MeasuredCost(engine, spec, clustered);

  // On the two-cluster workload the packed single MBR spans the gap; both
  // the analytic estimate and the measured counters must call it the worse
  // plan — the estimator ranks plans the same way reality does.
  EXPECT_GT(est_packed, est_clustered);
  EXPECT_GT(run_packed, run_clustered);
}

// Measured cost of running `spec` under one forced plan, in the currency of
// the planner trace's actual_cost with the paper's constants: index nodes
// plus record pages plus 0.4 per comparison.
double ForcedCost(const core::SimilarityEngine& engine,
                  core::RangeQuerySpec spec, core::Algorithm algorithm,
                  const transform::Partition& partition) {
  spec.partition = partition;
  core::ExecOptions options;
  options.planner.algorithm = algorithm;
  const auto result = engine.Execute(spec, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0.0;
  const core::QueryStats& stats = result->stats();
  return kPaperConstants.c_da * static_cast<double>(stats.disk_accesses()) +
         kPaperConstants.c_cmp * static_cast<double>(stats.comparisons);
}

// The cheapest measured cost among the fixed plans planner_quality compares
// against: scan, ST, one packed rectangle, contiguous k = 2 and 4, and the
// cluster-aware split.
double CheapestFixedCost(const core::SimilarityEngine& engine,
                         const core::RangeQuerySpec& spec) {
  const std::size_t count = spec.transforms.size();
  std::vector<transform::FeatureTransform> fts;
  for (const auto& t : spec.transforms) {
    fts.push_back(t.ToFeatureTransform(engine.dataset().layout()));
  }
  double cheapest =
      std::min(ForcedCost(engine, spec, core::Algorithm::kSequentialScan, {}),
               ForcedCost(engine, spec, core::Algorithm::kStIndex, {}));
  for (const transform::Partition& partition :
       {transform::PartitionAll(count),
        transform::PartitionIntoGroups(count, 2),
        transform::PartitionIntoGroups(count, 4),
        transform::PartitionByClusters(fts, count / 2)}) {
    cheapest = std::min(cheapest, ForcedCost(engine, spec,
                                             core::Algorithm::kMtIndex,
                                             partition));
  }
  return cheapest;
}

// Once the feature-level bound fetches only what some transformation
// admits, the packed rectangle across the two clusters is no longer the
// worst plan here: its one traversal costs less than the split plans'
// several. The planner has to follow the measured costs, not a fixed
// ranking.
TEST(PlannerTest, AutoMatchesTheCheapestMeasuredPlanOnTwoClusters) {
  core::SimilarityEngine engine(core::testutil::Stocks(400, kLength, 92));
  const core::RangeQuerySpec spec = TwoClusterSpec(engine);

  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::PlannerTrace& trace = result->trace().planner;
  ASSERT_TRUE(trace.planned);
  ASSERT_NE(trace.chosen_candidate(), nullptr);
  EXPECT_GT(trace.candidates.size(), 2u);  // scan, ST and MT variants priced
  EXPECT_LE(trace.actual_cost, 1.1 * CheapestFixedCost(engine, spec))
      << trace.chosen_candidate()->label;

  // Whatever it picked answers exactly like a forced MT run.
  core::ExecOptions forced;
  forced.planner.algorithm = core::Algorithm::kMtIndex;
  const auto reference = engine.Execute(spec, forced);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result->range()->matches.size(),
            reference->range()->matches.size());
}

// The Fig. 5 shape: random walks under 16 moving averages at rho = 0.96.
// The transformations are so alike that a candidate one admits, the others
// mostly admit too, so every extra rectangle re-fetches the same
// candidates and adds a traversal: one packed rectangle is cheapest.
TEST(PlannerTest, AutoPicksOnePackedRectangleOnFig5Walks) {
  core::SimilarityEngine engine(core::testutil::RandomWalks(500, kLength, 51));
  core::RangeQuerySpec spec;
  spec.transforms = transform::MovingAverageRange(kLength, 10, 25);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, kLength);

  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  for (const std::size_t query_id : {3u, 170u, 333u, 499u}) {
    spec.query = ts::Denormalize(engine.dataset().normal(query_id));
    const auto result = engine.Execute(spec, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const obs::PlannerTrace& trace = result->trace().planner;
    ASSERT_TRUE(trace.planned);
    ASSERT_NE(trace.chosen_candidate(), nullptr);
    EXPECT_EQ(trace.chosen_candidate()->label, "MT k=1 packed") << query_id;
    EXPECT_LE(trace.actual_cost, 1.1 * CheapestFixedCost(engine, spec))
        << query_id;
  }
}

// Admit sets are bitsets of any width: 80 scale factors need two words.
TEST(PlannerTest, PlansMoreThanSixtyFourTransformationsExactly) {
  core::SimilarityEngine engine(core::testutil::RandomWalks(200, kLength, 98));
  core::RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(7));
  spec.transforms = transform::ScaleRange(kLength, 1.0, 80.0);
  ASSERT_EQ(spec.transforms.size(), 80u);
  spec.epsilon = 20.0;

  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->trace().planner.planned);

  std::vector<core::Match> got = result->range()->matches;
  std::vector<core::Match> want = testing::Oracle(engine.dataset()).Range(spec);
  EXPECT_FALSE(want.empty());
  const auto by_id = [](const core::Match& a, const core::Match& b) {
    return std::tie(a.series_id, a.transform_index) <
           std::tie(b.series_id, b.transform_index);
  };
  std::sort(got.begin(), got.end(), by_id);
  std::sort(want.begin(), want.end(), by_id);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].series_id, want[i].series_id) << i;
    EXPECT_EQ(got[i].transform_index, want[i].transform_index) << i;
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-6) << i;
  }
}

// The sampled estimate depends on the target (the bound pairs t(x) with
// t(q) under kBoth, with q under kDataOnly), so the target is part of the
// plan-cache key.
TEST(PlannerTest, TargetsDoNotShareACachedPlan) {
  core::SimilarityEngine engine(core::testutil::Stocks(60, kLength, 99));
  core::RangeQuerySpec both = TwoClusterSpec(engine);
  core::RangeQuerySpec data_only = both;
  data_only.target = core::TransformTarget::kDataOnly;
  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();

  for (const core::RangeQuerySpec* spec : {&both, &data_only}) {
    const auto fresh = engine.Execute(*spec, options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_FALSE(fresh->trace().planner.cache_hit);
    const auto again = engine.Execute(*spec, options);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->trace().planner.cache_hit);
  }
}

TEST(PlannerTest, AutoEstimateIsNearMeasuredCostForChosenPlan) {
  core::SimilarityEngine engine(core::testutil::Stocks(400, kLength, 93));
  const core::RangeQuerySpec spec = TwoClusterSpec(engine);

  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok());
  const obs::PlannerTrace& trace = result->trace().planner;
  ASSERT_TRUE(trace.planned);
  ASSERT_GE(trace.actual_cost, 0.0);
  EXPECT_GT(trace.estimated_cost, 0.0);
  // The analytic estimate needs to rank plans, not predict their cost to the
  // page; an order of magnitude is the sanity band.
  EXPECT_LT(trace.estimated_cost, trace.actual_cost * 10.0);
  EXPECT_GT(trace.estimated_cost, trace.actual_cost / 10.0);
}

TEST(PlannerTest, PlanCacheHitsAndMutationInvalidation) {
  core::SimilarityEngine engine(core::testutil::Stocks(60, kLength, 94));
  const core::RangeQuerySpec spec = TwoClusterSpec(engine);
  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  // perfbench's plan.cache_hit_ratio reads these process-wide counters: a
  // fresh kAuto plan is one miss, and each repeat of it one hit.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter* hits = registry.counter("engine.planner.cache_hits");
  const obs::Counter* misses = registry.counter("engine.planner.cache_misses");
  const std::uint64_t hits_before = hits->value();
  const std::uint64_t misses_before = misses->value();

  const auto first = engine.Execute(spec, options);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->trace().planner.cache_hit);
  EXPECT_EQ(misses->value(), misses_before + 1);
  EXPECT_EQ(hits->value(), hits_before);
  const auto second = engine.Execute(spec, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->trace().planner.cache_hit);
  EXPECT_EQ(misses->value(), misses_before + 1);
  EXPECT_EQ(hits->value(), hits_before + 1);
  // Same decision either way.
  EXPECT_EQ(first->trace().planner.chosen_candidate()->label,
            second->trace().planner.chosen_candidate()->label);

  // An index mutation bumps the epoch and drops every cached plan.
  const std::uint64_t epoch_before = engine.planner().epoch();
  ts::Series extra = ts::Denormalize(engine.dataset().normal(1));
  extra[3] += 0.25;
  ASSERT_TRUE(engine.Insert(extra).ok());
  EXPECT_GT(engine.planner().epoch(), epoch_before);
  const auto third = engine.Execute(spec, options);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->trace().planner.cache_hit);
}

TEST(PlannerTest, ExplainRendersThePlan) {
  core::SimilarityEngine engine(core::testutil::Stocks(60, kLength, 95));
  const core::RangeQuerySpec spec = TwoClusterSpec(engine);
  core::ExecOptions options;
  options.planner = DeterministicPlannerOptions();
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok());

  const std::string json = core::ExplainJson(*result);
  EXPECT_NE(json.find("\"planner\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"chosen\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\""), std::string::npos);

  const std::string text = core::Explain(*result);
  EXPECT_NE(text.find("planner:"), std::string::npos);
  EXPECT_NE(text.find("<= chosen"), std::string::npos);

  // A forced run renders no planner block and keeps the legacy JSON shape.
  core::ExecOptions forced;
  forced.planner.algorithm = core::Algorithm::kSequentialScan;
  const auto plain = engine.Execute(spec, forced);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(core::ExplainJson(*plain).find("\"planner\""), std::string::npos);
}

TEST(PlannerTest, RawExecutorsRejectUnresolvedAuto) {
  core::SimilarityEngine engine(core::testutil::Stocks(30, kLength, 96));
  const core::RangeQuerySpec range = TwoClusterSpec(engine);
  core::KnnQuerySpec knn;
  knn.query = range.query;
  knn.transforms = range.transforms;
  core::JoinQuerySpec join;
  join.transforms = range.transforms;
  core::ExecOptions options;  // algorithm left at kAuto
  EXPECT_EQ(core::RunKnnQuery(engine.dataset(), engine.index(), knn, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(core::RunJoinQuery(engine.dataset(), engine.index(), join, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ForcedAlgorithmsBypassPlanningAndPartitioningKnobs) {
  core::SimilarityEngine engine(core::testutil::Stocks(30, kLength, 97));
  core::RangeQuerySpec spec = TwoClusterSpec(engine);
  spec.partition = transform::PartitionIntoGroups(spec.transforms.size(), 3);
  core::ExecOptions options;
  options.planner.algorithm = core::Algorithm::kMtIndex;
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->trace().planner.planned);
  EXPECT_EQ(result->group_stats.size(), 3u);  // spec partition untouched
}

// A transformation of the wrong length falls through planning to the
// executor's validation, as under a forced algorithm, instead of reaching
// ToFeatureTransform, which aborts on it. In a batch the bad entry fails on
// its own and a valid one beside it still answers.
TEST(PlannerTest, AutoRejectsTransformationsOfTheWrongLength) {
  core::SimilarityEngine engine(core::testutil::RandomWalks(200, 64, 98));
  const std::vector<transform::SpectralTransform> short_set = {
      transform::SpectralTransform::Identity(2)};
  core::RangeQuerySpec range;
  range.query = ts::Denormalize(engine.dataset().normal(1));
  range.transforms = short_set;
  range.epsilon = 1.0;
  core::KnnQuerySpec knn;
  knn.query = range.query;
  knn.transforms = short_set;
  knn.k = 3;
  core::JoinQuerySpec join;
  join.mode = core::JoinMode::kDistance;
  join.epsilon = 1.0;
  join.transforms = short_set;
  for (const core::QuerySpec& spec : {core::QuerySpec(range),
                                      core::QuerySpec(knn),
                                      core::QuerySpec(join)}) {
    const auto result = engine.Execute(spec);
    ASSERT_FALSE(result.ok()) << "spec " << spec.index();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
  }

  core::RangeQuerySpec valid = range;
  valid.transforms = {transform::SpectralTransform::Identity(64)};
  const auto batch = engine.ExecuteBatch({valid, range, knn, join});
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status().ToString();
  EXPECT_EQ(testing::OracleDiff(
                testing::ExpectedFor(testing::Oracle(engine.dataset()), valid),
                *batch[0], core::Algorithm::kAuto, 1e-6),
            "");
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].status().code(), StatusCode::kInvalidArgument)
        << "entry " << i << ": " << batch[i].status().ToString();
  }
}

// A layout of mean and stddev alone indexes no coefficient: the planner's
// sample then holds no coefficient, and a kAuto range query still plans
// and answers as the oracle does.
TEST(PlannerTest, AutoPlansALayoutWithoutCoefficients) {
  core::SimilarityEngine::Options options;
  options.layout.num_coefficients = 0;
  core::SimilarityEngine engine(core::testutil::Stocks(200, kLength, 99),
                                options);
  core::RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(5));
  spec.transforms = transform::MovingAverageRange(kLength, 5, 12);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, kLength);
  const auto result =
      engine.Execute(spec, {.planner = DeterministicPlannerOptions()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->trace().planner.planned);
  EXPECT_EQ(testing::OracleDiff(
                testing::ExpectedFor(testing::Oracle(engine.dataset()), spec),
                *result, core::Algorithm::kAuto, 1e-6),
            "");
}

}  // namespace
}  // namespace tsq::plan
