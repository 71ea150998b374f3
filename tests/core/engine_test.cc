#include "core/engine.h"

#include <filesystem>
#include <limits>

#include "common/rng.h"
#include "core/range_query.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

TEST(SimilarityEngineTest, EndToEndRangeQuery) {
  SimilarityEngine engine(testutil::Stocks(100, 128, 31));
  EXPECT_EQ(engine.size(), 100u);
  EXPECT_EQ(engine.length(), 128u);

  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(128, 1, 40);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);
  const auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->range(), nullptr);
  EXPECT_EQ(result->knn(), nullptr);
  EXPECT_EQ(result->join(), nullptr);
  EXPECT_FALSE(result->range()->matches.empty());
  // The query itself qualifies under every window (distance 0).
  std::size_t self_matches = 0;
  for (const Match& m : result->range()->matches) {
    if (m.series_id == 0) ++self_matches;
  }
  EXPECT_EQ(self_matches, spec.transforms.size());
}

TEST(SimilarityEngineTest, AllThreeQueryTypes) {
  SimilarityEngine engine(testutil::Stocks(60, 128, 32));

  RangeQuerySpec range;
  range.query = ts::Denormalize(engine.dataset().normal(5));
  range.transforms = transform::MovingAverageRange(128, 5, 10);
  range.epsilon = 2.0;
  EXPECT_TRUE(engine.Execute(range, {.planner = {.algorithm = Algorithm::kStIndex}}).ok());

  JoinQuerySpec join;
  join.mode = JoinMode::kCorrelation;
  join.min_correlation = 0.99;
  join.transforms = transform::MovingAverageRange(128, 5, 10);
  EXPECT_TRUE(engine.Execute(join).ok());

  KnnQuerySpec knn;
  knn.query = ts::Denormalize(engine.dataset().normal(5));
  knn.k = 3;
  knn.transforms = transform::MovingAverageRange(128, 5, 10);
  const auto neighbors = engine.Execute(knn);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_NE(neighbors->knn(), nullptr);
  EXPECT_EQ(neighbors->knn()->matches.size(), 3u);
  EXPECT_EQ(neighbors->knn()->matches[0].series_id, 5u);
}

TEST(SimilarityEngineTest, CustomOptions) {
  SimilarityEngine::Options options;
  options.layout.num_coefficients = 3;
  options.layout.include_mean_std = false;
  options.layout.use_symmetry = false;
  SimilarityEngine engine(testutil::RandomWalks(50, 64, 33), options);
  EXPECT_EQ(engine.index().tree().dimensions(), 6u);

  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(64, 1, 5);
  spec.epsilon = 1.5;
  const auto via_index =
      engine.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  const auto via_scan =
      engine.Execute(spec, {.planner = {.algorithm = Algorithm::kSequentialScan}});
  ASSERT_TRUE(via_index.ok());
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(via_index->range()->matches.size(),
            via_scan->range()->matches.size());
}

TEST(SimilarityEngineTest, GroupStatsExposedForCostAnalysis) {
  SimilarityEngine engine(testutil::Stocks(80, 128, 34));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(128, 6, 17);
  spec.epsilon = 2.0;
  spec.partition = transform::PartitionBySize(spec.transforms.size(), 4);
  const auto result =
      engine.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_stats.size(), 3u);
  for (const GroupRunStats& g : result->group_stats) {
    EXPECT_EQ(g.transforms, 4u);
    EXPECT_GE(g.da_all, g.da_leaf);
  }
}

TEST(SimilarityEngineTest, DefaultOptionsPlanAndMatchForcedPlans) {
  // Execute() defaults to Algorithm::kAuto: the planner must pick some plan
  // whose answers agree with every forced algorithm.
  SimilarityEngine engine(testutil::Stocks(40, 128, 39));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(128, 5, 10);
  spec.epsilon = 2.0;
  const auto planned = engine.Execute(spec);
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->trace().planner.planned);
  EXPECT_NE(planned->trace().planner.chosen_candidate(), nullptr);
  const auto forced =
      engine.Execute(spec, {.planner = {.algorithm = Algorithm::kMtIndex}});
  ASSERT_TRUE(forced.ok());
  EXPECT_FALSE(forced->trace().planner.planned);
  EXPECT_EQ(planned->range()->matches.size(),
            forced->range()->matches.size());
}

TEST(SimilarityEngineTest, InsertAndRemoveSequences) {
  SimilarityEngine engine(testutil::Stocks(40, 128, 37));
  const std::size_t before = engine.size();

  // Insert a near-copy of stock 0; it must be findable immediately.
  ts::Series clone = ts::Denormalize(engine.dataset().normal(0));
  clone[5] += 0.01;
  const auto id = engine.Insert(clone);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.size(), before + 1);

  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = {transform::SpectralTransform::Identity(128)};
  spec.epsilon = 1.0;
  auto found = engine.Execute(spec);
  ASSERT_TRUE(found.ok());
  bool has_clone = false;
  for (const Match& m : found->range()->matches) {
    if (m.series_id == *id) has_clone = true;
  }
  EXPECT_TRUE(has_clone);

  // Remove it: gone from every algorithm, and the index stays sound.
  ASSERT_TRUE(engine.Remove(*id).ok());
  EXPECT_EQ(engine.size(), before);
  EXPECT_TRUE(engine.index().tree().CheckInvariants().ok());
  for (Algorithm algorithm : {Algorithm::kSequentialScan, Algorithm::kStIndex,
                              Algorithm::kMtIndex}) {
    auto result = engine.Execute(spec, {.planner = {.algorithm = algorithm}});
    ASSERT_TRUE(result.ok());
    for (const Match& m : result->range()->matches) {
      EXPECT_NE(m.series_id, *id) << AlgorithmName(algorithm);
    }
  }
  // Brute force agrees after mutations (indexed vs scan still equivalent).
  const auto expected = testing::Oracle(engine.dataset()).Range(spec);
  auto mt = engine.Execute(spec);
  ASSERT_TRUE(mt.ok());
  EXPECT_EQ(mt->range()->matches.size(), expected.size());

  // Double-remove and bad ids are NotFound; wrong length rejected.
  EXPECT_EQ(engine.Remove(*id).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Remove(99999).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Insert(ts::Series(3, 0.0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimilarityEngineTest, ManyInsertionsAndRemovalsStaySound) {
  SimilarityEngine engine(testutil::RandomWalks(30, 64, 38));
  Rng rng(38);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < engine.size(); ++i) live.push_back(i);
  for (int round = 0; round < 60; ++round) {
    if (rng.Bernoulli(0.5) || live.size() < 5) {
      ts::Series s(64);
      double v = 0.0;
      for (double& x : s) {
        v += rng.Uniform(-1.0, 1.0);
        x = v;
      }
      const auto id = engine.Insert(s);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(engine.Remove(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_EQ(engine.size(), live.size());
  ASSERT_TRUE(engine.index().tree().CheckInvariants().ok());
  // Queries still exact after heavy churn.
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(live.front()));
  spec.transforms = transform::MovingAverageRange(64, 1, 6);
  spec.epsilon = 2.0;
  const auto expected = testing::Oracle(engine.dataset()).Range(spec);
  auto mt = engine.Execute(spec);
  auto seq = engine.Execute(spec, {.planner = {.algorithm = Algorithm::kSequentialScan}});
  ASSERT_TRUE(mt.ok());
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(mt->range()->matches.size(), expected.size());
  EXPECT_EQ(seq->range()->matches.size(), expected.size());
}

TEST(SimilarityEngineTest, ResetIoStats) {
  SimilarityEngine engine(testutil::RandomWalks(40, 64, 35));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(64, 1, 4);
  spec.epsilon = 3.0;
  ASSERT_TRUE(engine.Execute(spec).ok());
  engine.ResetIoStats();
  EXPECT_EQ(engine.dataset().record_io().reads, 0u);
  EXPECT_EQ(engine.index().index_io().reads, 0u);
}

TEST(SimilarityEngineTest, InsertRejectsNonFiniteSeries) {
  SimilarityEngine engine(testutil::Stocks(40, 64, 39));
  const ts::Series base = ts::Denormalize(engine.dataset().normal(1));
  const auto with = [&base](std::size_t at, double value) {
    ts::Series series = base;
    series[at] = value;
    return series;
  };
  // Finite values whose stddev overflows to inf.
  ts::Series huge(64);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = i % 2 == 0 ? 1e300 : -1e300;
  }
  const std::vector<ts::Series> rejected = {
      with(10, std::numeric_limits<double>::quiet_NaN()),
      with(20, std::numeric_limits<double>::infinity()),
      with(30, -std::numeric_limits<double>::infinity()), huge};
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    const std::size_t size = engine.size();
    const std::uint64_t version = engine.write_version();
    EXPECT_EQ(engine.Insert(rejected[i]).status().code(),
              StatusCode::kInvalidArgument)
        << i;
    EXPECT_EQ(engine.size(), size) << i;
    EXPECT_EQ(engine.write_version(), version) << i;
  }

  RangeQuerySpec spec;
  spec.query = base;
  spec.transforms = transform::MovingAverageRange(64, 1, 8);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.9, 64);
  const auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<Match> got = result->range()->matches;
  std::vector<Match> expected = testing::Oracle(engine.dataset()).Range(spec);
  SortMatches(&got);
  SortMatches(&expected);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].series_id, expected[i].series_id) << i;
    EXPECT_EQ(got[i].transform_index, expected[i].transform_index) << i;
    EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-6) << i;
  }

  // Nothing non-finite reached the checkpoint meta, so it loads back.
  const std::string prefix = ::testing::TempDir() + "/tsq_engine_nonfinite";
  ASSERT_TRUE(engine.SaveTo(prefix).ok());
  const auto loaded = SimilarityEngine::LoadFrom(prefix);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(prefix).parent_path(), ec)) {
    if (entry.path().filename().string().starts_with("tsq_engine_nonfinite")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace
}  // namespace tsq::core
