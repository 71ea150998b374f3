// Determinism and accounting properties of SimilarityEngine::ExecuteBatch:
// every batched entry must equal its per-spec sequential Execute() — in
// matches, QueryStats, group_stats and trace signature — and match the
// brute-force oracle across every algorithm and thread count, and the
// per-entry record-page counts must reconcile exactly with the PageFile's
// physical read counter — even when ResetIoStats() fires in the middle of
// the batch.

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/range_query.h"
#include "storage/fault_injection.h"
#include "test_util.h"
#include "testing/differential.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

constexpr double kTol = 1e-6;

class BatchDeterminismTest : public ::testing::Test {
 protected:
  BatchDeterminismTest()
      : engine_(testutil::Stocks(70, 128, 91)), oracle_(engine_.dataset()) {}

  RangeQuerySpec RangeSpec(std::size_t query_id, double correlation) const {
    RangeQuerySpec spec;
    spec.query = ts::Denormalize(engine_.dataset().normal(query_id));
    spec.transforms = transform::MovingAverageRange(128, 4, 14);
    spec.epsilon = ts::CorrelationToDistanceThreshold(correlation, 128);
    return spec;
  }

  // A mixed batch: three range queries over one transform set (one with its
  // own partition), a k-NN, a correlation join, and a verbatim duplicate of
  // entry 0.
  std::vector<QuerySpec> MixedBatch() const {
    std::vector<QuerySpec> specs;
    specs.push_back(RangeSpec(0, 0.96));
    specs.push_back(RangeSpec(7, 0.97));
    RangeQuerySpec partitioned = RangeSpec(13, 0.96);
    partitioned.partition =
        transform::PartitionBySize(partitioned.transforms.size(), 4);
    specs.push_back(partitioned);
    KnnQuerySpec knn;
    knn.query = ts::Denormalize(engine_.dataset().normal(21));
    knn.k = 5;
    knn.transforms = transform::MovingAverageRange(128, 4, 14);
    specs.push_back(knn);
    JoinQuerySpec join;
    join.mode = JoinMode::kCorrelation;
    join.min_correlation = 0.99;
    join.transforms = transform::MovingAverageRange(128, 6, 9);
    specs.push_back(join);
    specs.push_back(specs[0]);
    return specs;
  }

  SimilarityEngine engine_;
  testing::Oracle oracle_;
};

TEST_F(BatchDeterminismTest, BatchedEqualsSequentialAndOracleEverywhere) {
  const std::vector<QuerySpec> specs = MixedBatch();
  static constexpr Algorithm kAlgorithms[] = {
      Algorithm::kSequentialScan, Algorithm::kStIndex, Algorithm::kMtIndex,
      Algorithm::kAuto};
  for (const Algorithm algorithm : kAlgorithms) {
    // Per-spec sequential baseline.
    std::vector<QueryResult> sequential;
    for (const QuerySpec& spec : specs) {
      ExecOptions options;
      options.planner.algorithm = algorithm;
      auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      sequential.push_back(std::move(*result));
    }
    for (const std::size_t threads : {1, 4, 8}) {
      BatchOptions options;
      options.exec.planner.algorithm = algorithm;
      options.exec.num_threads = threads;
      const auto batch = engine_.ExecuteBatch(specs, options);
      ASSERT_EQ(batch.size(), specs.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << AlgorithmName(algorithm) << "/" << threads
                     << "t entry " << i);
        ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
        // Not only the answers: every entry does exactly its solo work.
        EXPECT_EQ(testing::ExactDiff(sequential[i], *batch[i]), "");
        EXPECT_EQ(testing::OracleDiff(testing::ExpectedFor(oracle_, specs[i]),
                                      *batch[i], algorithm, kTol),
                  "");
        EXPECT_EQ(batch[i]->trace().batch_size, specs.size());
        EXPECT_EQ(batch[i]->trace().snapshot_version,
                  batch[0]->trace().snapshot_version);
      }
    }
    // Execute(spec) is ExecuteBatch({spec}): every counter, per-rectangle
    // stat and trace signature, not only the matches; only batch_size tells
    // them apart.
    for (const std::size_t threads : {1, 4}) {
      ExecOptions options;
      options.planner.algorithm = algorithm;
      options.num_threads = threads;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << AlgorithmName(algorithm) << "/" << threads
                     << "t one-spec batch of entry " << i);
        const auto solo = engine_.Execute(specs[i], options);
        const auto one = engine_.ExecuteBatch({specs[i]}, {.exec = options});
        ASSERT_TRUE(solo.ok()) << solo.status().ToString();
        ASSERT_EQ(one.size(), 1u);
        ASSERT_TRUE(one[0].ok()) << one[0].status().ToString();
        EXPECT_EQ(testing::ExactDiff(*solo, *one[0]), "");
        EXPECT_EQ(solo->trace().batch_size, 0u);
        EXPECT_EQ(one[0]->trace().batch_size, 1u);
      }
    }
  }

  // An MT partition whose rectangles share candidates (the query itself is
  // one in every rectangle): one query charges every (rectangle, candidate)
  // fetch its own pages, as Algorithm 1 post-processes each rectangle alone.
  ExecOptions mt;
  mt.planner.algorithm = Algorithm::kMtIndex;
  const QuerySpec& partitioned = specs[2];
  engine_.ResetIoStats();
  const auto solo = engine_.Execute(partitioned, mt);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  ASSERT_GE(solo->group_stats.size(), 2u);
  EXPECT_EQ(solo->stats().record_pages_read,
            engine_.dataset().record_io().reads);
}

TEST_F(BatchDeterminismTest, MatchesAreByteIdenticalAcrossThreadCounts) {
  const std::vector<QuerySpec> specs = MixedBatch();
  for (const Algorithm algorithm : {Algorithm::kMtIndex, Algorithm::kAuto}) {
    std::vector<std::vector<QueryResult>> runs;
    for (const std::size_t threads : {1, 4, 8}) {
      BatchOptions options;
      options.exec.planner.algorithm = algorithm;
      options.exec.num_threads = threads;
      auto batch = engine_.ExecuteBatch(specs, options);
      ASSERT_EQ(batch.size(), specs.size());
      std::vector<QueryResult> results;
      for (auto& entry : batch) {
        ASSERT_TRUE(entry.ok()) << entry.status().ToString();
        results.push_back(std::move(*entry));
      }
      runs.push_back(std::move(results));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "run " << r << " entry " << i);
        EXPECT_EQ(testing::ExactDiff(runs[0][i], runs[r][i]), "");
      }
    }
  }
}

TEST_F(BatchDeterminismTest, RecordPageAttributionReconcilesWithPageFile) {
  std::vector<QuerySpec> specs;
  specs.push_back(RangeSpec(0, 0.96));
  specs.push_back(RangeSpec(7, 0.97));
  specs.push_back(RangeSpec(13, 0.96));
  specs.push_back(specs[0]);

  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kMtIndex}) {
    BatchOptions options;
    options.exec.planner.algorithm = algorithm;
    options.exec.num_threads = 4;

    engine_.ResetIoStats();
    const auto batch = engine_.ExecuteBatch(specs, options);
    const std::uint64_t physical = engine_.dataset().record_io().reads;
    std::uint64_t attributed = 0;
    for (const auto& entry : batch) {
      ASSERT_TRUE(entry.ok());
      attributed += entry->stats().record_pages_read;
    }
    // Every page read is charged to the one entry whose fetch read it: the
    // per-entry counts sum to the physical page reads, no more, no less.
    EXPECT_EQ(attributed, physical) << AlgorithmName(algorithm);
  }
}

// The engine keeps no result cache: a batch that asks for one is
// InvalidArgument on every entry, and no entry reads a page.
TEST_F(BatchDeterminismTest, CacheRequestIsInvalidOnEveryEntry) {
  const std::vector<QuerySpec> specs = MixedBatch();
  BatchOptions options;
  options.use_result_cache = true;
  engine_.ResetIoStats();
  const auto batch = engine_.ExecuteBatch(specs, options);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "entry " << i);
    ASSERT_FALSE(batch[i].ok());
    EXPECT_EQ(batch[i].status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine_.dataset().record_io().reads, 0u);
}

// ResetIoStats() firing mid-batch must not corrupt the per-entry page
// accounting: each verify task counts its pages through the fetch's own
// out-parameter, never by diffing the shared counters the reset zeroes.
class MidBatchResetHook : public storage::FaultHook {
 public:
  explicit MidBatchResetHook(SimilarityEngine* engine) : engine_(engine) {}
  storage::FaultDecision OnRead(std::uint32_t) override {
    if (reads_.fetch_add(1, std::memory_order_relaxed) % 5 == 4) {
      engine_->ResetIoStats();
    }
    return storage::FaultDecision{};
  }

 private:
  SimilarityEngine* engine_;
  std::atomic<std::uint64_t> reads_{0};
};

TEST_F(BatchDeterminismTest, MidBatchResetDoesNotSplitPageAccounting) {
  std::vector<QuerySpec> specs;
  specs.push_back(RangeSpec(0, 0.96));
  specs.push_back(RangeSpec(7, 0.97));
  specs.push_back(specs[0]);

  BatchOptions options;
  options.exec.planner.algorithm = Algorithm::kSequentialScan;
  options.exec.num_threads = 4;

  // Undisturbed baseline: matches and per-entry page counts.
  const auto baseline = engine_.ExecuteBatch(specs, options);
  for (const auto& entry : baseline) ASSERT_TRUE(entry.ok());

  MidBatchResetHook hook(&engine_);
  engine_.SetReadFaultHook(&hook);
  const auto disturbed = engine_.ExecuteBatch(specs, options);
  engine_.SetReadFaultHook(nullptr);

  ASSERT_EQ(disturbed.size(), baseline.size());
  for (std::size_t i = 0; i < disturbed.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "entry " << i);
    ASSERT_TRUE(disturbed[i].ok()) << disturbed[i].status().ToString();
    // The regression this guards: page counts derived from counter diffs
    // would tear across the reset and report garbage here.
    EXPECT_EQ(testing::ExactDiff(*baseline[i], *disturbed[i]), "");
  }
}

}  // namespace
}  // namespace tsq::core
