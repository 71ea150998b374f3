// The executor's core contract: Execute() returns byte-identical match sets
// and identical summed QueryStats for every num_threads value. The task
// decomposition (fixed-size chunks, one pass per transformation rectangle)
// depends only on the query, never on the worker count, and partial results
// are merged in task order.

#include <vector>

#include "../core/test_util.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

void ExpectSameStats(const QueryStats& a, const QueryStats& b,
                     const char* what) {
  EXPECT_EQ(a.index_nodes_accessed, b.index_nodes_accessed) << what;
  EXPECT_EQ(a.index_leaves_accessed, b.index_leaves_accessed) << what;
  EXPECT_EQ(a.record_pages_read, b.record_pages_read) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.comparisons, b.comparisons) << what;
  EXPECT_EQ(a.traversals, b.traversals) << what;
  EXPECT_EQ(a.output_size, b.output_size) << what;
}

class ExecutorDeterminismTest : public ::testing::Test {
 protected:
  ExecutorDeterminismTest()
      : engine_(testutil::Stocks(300, 128, 201)) {}

  SimilarityEngine engine_;
  const std::vector<std::size_t> thread_counts_{1, 4, 8};
};

TEST_F(ExecutorDeterminismTest, RangeQueryIdenticalAcrossThreadCounts) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(11));
  spec.transforms = transform::MovingAverageRange(128, 5, 24);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.95, 128);
  spec.partition = transform::PartitionBySize(spec.transforms.size(), 5);

  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    ExecOptions options;
    options.planner.algorithm = algorithm;
    options.num_threads = 1;
    const auto baseline = engine_.Execute(spec, options);
    ASSERT_TRUE(baseline.ok()) << AlgorithmName(algorithm);
    EXPECT_FALSE(baseline->range()->matches.empty());

    for (const std::size_t threads : thread_counts_) {
      options.num_threads = threads;
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
      // Identical matches, in identical order — not just the same set.
      EXPECT_EQ(result->range()->matches, baseline->range()->matches)
          << AlgorithmName(algorithm) << " threads=" << threads;
      ExpectSameStats(result->stats(), baseline->stats(),
                      AlgorithmName(algorithm));
      // Per-rectangle counters are deterministic too.
      ASSERT_EQ(result->group_stats.size(), baseline->group_stats.size());
      for (std::size_t g = 0; g < result->group_stats.size(); ++g) {
        EXPECT_EQ(result->group_stats[g].da_all,
                  baseline->group_stats[g].da_all);
        EXPECT_EQ(result->group_stats[g].da_leaf,
                  baseline->group_stats[g].da_leaf);
        EXPECT_EQ(result->group_stats[g].candidates,
                  baseline->group_stats[g].candidates);
      }
    }
  }
}

TEST_F(ExecutorDeterminismTest, KnnQueryIdenticalAcrossThreadCounts) {
  KnnQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(4));
  spec.k = 7;
  spec.transforms = transform::MovingAverageRange(128, 5, 16);

  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kMtIndex}) {
    ExecOptions options;
    options.planner.algorithm = algorithm;
    options.num_threads = 1;
    const auto baseline = engine_.Execute(spec, options);
    ASSERT_TRUE(baseline.ok()) << AlgorithmName(algorithm);
    ASSERT_EQ(baseline->knn()->matches.size(), 7u);

    for (const std::size_t threads : thread_counts_) {
      options.num_threads = threads;
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
      ASSERT_EQ(result->knn()->matches.size(),
                baseline->knn()->matches.size());
      for (std::size_t i = 0; i < result->knn()->matches.size(); ++i) {
        EXPECT_EQ(result->knn()->matches[i].series_id,
                  baseline->knn()->matches[i].series_id);
        EXPECT_EQ(result->knn()->matches[i].transform_index,
                  baseline->knn()->matches[i].transform_index);
        EXPECT_EQ(result->knn()->matches[i].distance,
                  baseline->knn()->matches[i].distance);
      }
      ExpectSameStats(result->stats(), baseline->stats(),
                      AlgorithmName(algorithm));
    }
  }
}

TEST_F(ExecutorDeterminismTest, JoinQueryIdenticalAcrossThreadCounts) {
  JoinQuerySpec spec;
  spec.mode = JoinMode::kCorrelation;
  spec.min_correlation = 0.99;
  spec.transforms = transform::MovingAverageRange(128, 5, 12);
  spec.partition = transform::PartitionBySize(spec.transforms.size(), 3);

  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    ExecOptions options;
    options.planner.algorithm = algorithm;
    options.num_threads = 1;
    const auto baseline = engine_.Execute(spec, options);
    ASSERT_TRUE(baseline.ok()) << AlgorithmName(algorithm);
    EXPECT_FALSE(baseline->join()->matches.empty());

    for (const std::size_t threads : thread_counts_) {
      options.num_threads = threads;
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(result->join()->matches, baseline->join()->matches)
          << AlgorithmName(algorithm) << " threads=" << threads;
      ExpectSameStats(result->stats(), baseline->stats(),
                      AlgorithmName(algorithm));
    }
  }
}

TEST_F(ExecutorDeterminismTest, ZeroThreadsMeansHardwareAndStaysExact) {
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine_.dataset().normal(0));
  spec.transforms = transform::MovingAverageRange(128, 6, 17);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);

  const auto serial = engine_.Execute(spec);
  const auto hardware = engine_.Execute(spec, {.num_threads = 0});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(hardware.ok());
  EXPECT_EQ(hardware->range()->matches, serial->range()->matches);
  ExpectSameStats(hardware->stats(), serial->stats(), "num_threads=0");
}

}  // namespace
}  // namespace tsq::core
