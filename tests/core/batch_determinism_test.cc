// Determinism and accounting properties of SimilarityEngine::ExecuteBatch:
// every batched entry must equal its per-spec sequential Execute() — in
// matches, QueryStats, group_stats and trace signature — and match the
// brute-force oracle across every algorithm and thread count, and the
// per-entry record-page counts must reconcile exactly with the PageFile's
// physical read counter — even when ResetIoStats() fires in the middle of
// the batch.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/range_query.h"
#include "storage/fault_injection.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

constexpr double kTol = 1e-6;

bool Near(double a, double b) {
  return std::fabs(a - b) <=
         kTol * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

// Bitwise equality of the match lists, in order — the batch executor's
// exactness contract against sequential execution at the same snapshot.
void ExpectExactlyEqual(const QueryResult& expected, const QueryResult& got) {
  if (const auto* range = expected.range()) {
    ASSERT_NE(got.range(), nullptr);
    ASSERT_EQ(range->matches.size(), got.range()->matches.size());
    for (std::size_t i = 0; i < range->matches.size(); ++i) {
      EXPECT_TRUE(range->matches[i] == got.range()->matches[i]) << "match " << i;
    }
    return;
  }
  if (const auto* knn = expected.knn()) {
    ASSERT_NE(got.knn(), nullptr);
    ASSERT_EQ(knn->matches.size(), got.knn()->matches.size());
    for (std::size_t i = 0; i < knn->matches.size(); ++i) {
      EXPECT_EQ(knn->matches[i].series_id, got.knn()->matches[i].series_id);
      EXPECT_EQ(knn->matches[i].distance, got.knn()->matches[i].distance);
    }
    return;
  }
  ASSERT_NE(expected.join(), nullptr);
  ASSERT_NE(got.join(), nullptr);
  ASSERT_EQ(expected.join()->matches.size(), got.join()->matches.size());
  for (std::size_t i = 0; i < expected.join()->matches.size(); ++i) {
    EXPECT_TRUE(expected.join()->matches[i] == got.join()->matches[i])
        << "pair " << i;
  }
}

// Tolerant comparison against the oracle (membership exact, values near).
void ExpectMatchesOracle(const testing::Oracle& oracle, const QuerySpec& spec,
                         const QueryResult& got, Algorithm algorithm) {
  if (const auto* range = std::get_if<RangeQuerySpec>(&spec)) {
    const std::vector<Match> expected = oracle.Range(*range);
    ASSERT_NE(got.range(), nullptr);
    std::vector<Match> sorted = got.range()->matches;
    SortMatches(&sorted);
    ASSERT_EQ(expected.size(), sorted.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].series_id, sorted[i].series_id) << i;
      EXPECT_EQ(expected[i].transform_index, sorted[i].transform_index) << i;
      EXPECT_TRUE(Near(expected[i].distance, sorted[i].distance)) << i;
    }
    return;
  }
  if (const auto* knn = std::get_if<KnnQuerySpec>(&spec)) {
    const std::vector<KnnMatch> expected = oracle.Knn(*knn);
    ASSERT_NE(got.knn(), nullptr);
    ASSERT_EQ(expected.size(), got.knn()->matches.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].series_id, got.knn()->matches[i].series_id) << i;
      EXPECT_TRUE(Near(expected[i].distance, got.knn()->matches[i].distance))
          << i;
    }
    return;
  }
  const auto& join = std::get<JoinQuerySpec>(spec);
  const std::vector<JoinMatch> expected = oracle.Join(join);
  ASSERT_NE(got.join(), nullptr);
  std::vector<JoinMatch> sorted = got.join()->matches;
  SortJoinMatches(&sorted);
  if (join.mode == JoinMode::kCorrelation &&
      algorithm != Algorithm::kSequentialScan) {
    // Indexed correlation joins may return a subset (documented filter
    // property); every reported pair must still be an oracle pair.
    for (const JoinMatch& m : sorted) {
      bool found = false;
      for (const JoinMatch& e : expected) {
        if (e.a == m.a && e.b == m.b &&
            e.transform_index == m.transform_index) {
          EXPECT_TRUE(Near(e.value, m.value));
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "pair (" << m.a << "," << m.b << ") not in oracle";
    }
    return;
  }
  ASSERT_EQ(expected.size(), sorted.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].a, sorted[i].a) << i;
    EXPECT_EQ(expected[i].b, sorted[i].b) << i;
    EXPECT_TRUE(Near(expected[i].value, sorted[i].value)) << i;
  }
}

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
        ExpectExactlyEqual(sequential[i], *batch[i]);
        // Not only the answers: every entry does exactly its solo work.
        EXPECT_EQ(sequential[i].stats(), batch[i]->stats());
        EXPECT_EQ(sequential[i].group_stats, batch[i]->group_stats);
        EXPECT_EQ(sequential[i].trace().DeterministicSignature(),
                  batch[i]->trace().DeterministicSignature());
        ExpectMatchesOracle(oracle_, specs[i], *batch[i], algorithm);
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
        ExpectExactlyEqual(*solo, *one[0]);
        EXPECT_EQ(solo->stats(), one[0]->stats());
        EXPECT_EQ(solo->group_stats, one[0]->group_stats);
        EXPECT_EQ(solo->trace().DeterministicSignature(),
                  one[0]->trace().DeterministicSignature());
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
        ExpectExactlyEqual(runs[0][i], runs[r][i]);
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
    ExpectExactlyEqual(*baseline[i], *disturbed[i]);
    // The regression this guards: page counts derived from counter diffs
    // would tear across the reset and report garbage here.
    EXPECT_EQ(disturbed[i]->stats().record_pages_read,
              baseline[i]->stats().record_pages_read);
  }
}

}  // namespace
}  // namespace tsq::core
