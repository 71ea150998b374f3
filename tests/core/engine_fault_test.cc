// Engine-level fault audit: with a fault hook installed on every storage
// layer, Execute() must surface storage errors as a non-OK Status — never
// crash, never return silently wrong results — and a clean rerun right after
// must reproduce the fault-free baseline (page-file state intact).

#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/fault_policy.h"
#include "testing/oracle.h"
#include "transform/builders.h"

namespace tsq::core {
namespace {

using tsq::testing::FaultPolicy;
using tsq::testing::FaultPolicyConfig;

class EngineFaultTest : public ::testing::Test {
 protected:
  EngineFaultTest() : series_(testutil::Stocks(24, 16, 7)), engine_(series_) {}

  RangeQuerySpec RangeSpec() const {
    RangeQuerySpec spec;
    spec.query = series_[0];
    spec.transforms = transform::MovingAverageRange(16, 1, 6);
    spec.epsilon = 1.5;
    return spec;
  }

  KnnQuerySpec KnnSpec() const {
    KnnQuerySpec spec;
    spec.query = series_[1];
    spec.transforms = transform::MovingAverageRange(16, 1, 4);
    spec.k = 3;
    return spec;
  }

  JoinQuerySpec JoinSpec() const {
    JoinQuerySpec spec;
    spec.transforms = transform::MovingAverageRange(16, 2, 3);
    spec.epsilon = 1.0;
    return spec;
  }

  std::vector<QuerySpec> AllSpecs() const {
    return {RangeSpec(), KnnSpec(), JoinSpec()};
  }

  static bool SameResult(const QueryResult& a, const QueryResult& b) {
    if (const auto* range = a.range()) {
      auto lhs = range->matches;
      auto rhs = b.range()->matches;
      SortMatches(&lhs);
      SortMatches(&rhs);
      return lhs == rhs;
    }
    if (const auto* knn = a.knn()) {
      const auto& lhs = knn->matches;
      const auto& rhs = b.knn()->matches;
      if (lhs.size() != rhs.size()) return false;
      for (std::size_t i = 0; i < lhs.size(); ++i) {
        if (lhs[i].series_id != rhs[i].series_id ||
            lhs[i].distance != rhs[i].distance) {
          return false;
        }
      }
      return true;
    }
    auto lhs = a.join()->matches;
    auto rhs = b.join()->matches;
    SortJoinMatches(&lhs);
    SortJoinMatches(&rhs);
    if (lhs.size() != rhs.size()) return false;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      if (lhs[i].a != rhs[i].a || lhs[i].b != rhs[i].b ||
          lhs[i].transform_index != rhs[i].transform_index ||
          lhs[i].value != rhs[i].value) {
        return false;
      }
    }
    return true;
  }

  std::vector<ts::Series> series_;
  SimilarityEngine engine_;
};

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kSequentialScan, Algorithm::kStIndex, Algorithm::kMtIndex};

TEST_F(EngineFaultTest, FirstReadFailureSurfacesOnEveryAlgorithmAndQuery) {
  for (const QuerySpec& spec : AllSpecs()) {
    for (const Algorithm algorithm : kAlgorithms) {
      ExecOptions options;
      options.planner.algorithm = algorithm;
      const auto baseline = engine_.Execute(spec, options);
      ASSERT_TRUE(baseline.ok());

      FaultPolicyConfig config;
      config.fail_nth_read = 1;
      FaultPolicy policy(config);
      engine_.SetReadFaultHook(&policy);
      const auto faulted = engine_.Execute(spec, options);
      engine_.SetReadFaultHook(nullptr);
      ASSERT_FALSE(faulted.ok())
          << "algorithm " << AlgorithmName(algorithm)
          << " swallowed an injected first-read failure";
      EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
      EXPECT_GE(policy.faults_injected(), 1u);

      const auto rerun = engine_.Execute(spec, options);
      ASSERT_TRUE(rerun.ok());
      EXPECT_TRUE(SameResult(*baseline, *rerun));
    }
  }
}

TEST_F(EngineFaultTest, MidQueryFailureSurfacesUnderParallelExecution) {
  for (const QuerySpec& spec : AllSpecs()) {
    for (const Algorithm algorithm : kAlgorithms) {
      ExecOptions options;
      options.planner.algorithm = algorithm;
      options.num_threads = 4;
      FaultPolicyConfig config;
      config.fail_every_k = 5;
      config.failure_code = StatusCode::kInternal;
      FaultPolicy policy(config);
      engine_.SetReadFaultHook(&policy);
      const auto faulted = engine_.Execute(spec, options);
      engine_.SetReadFaultHook(nullptr);
      // A tiny query can legitimately finish in fewer than 5 reads; the
      // contract is error-or-exact, never a silently wrong result.
      if (policy.faults_injected() > 0) {
        ASSERT_FALSE(faulted.ok());
        EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
      } else {
        EXPECT_TRUE(faulted.ok());
      }
    }
  }
}

TEST_F(EngineFaultTest, ChecksumCorruptionMidQueryReturnsCorruption) {
  ExecOptions options;
  options.planner.algorithm = Algorithm::kMtIndex;
  const QuerySpec spec = RangeSpec();
  const auto baseline = engine_.Execute(spec, options);
  ASSERT_TRUE(baseline.ok());

  FaultPolicyConfig config;
  config.corrupt_nth_read = 2;
  FaultPolicy policy(config);
  engine_.SetReadFaultHook(&policy);
  const auto faulted = engine_.Execute(spec, options);
  engine_.SetReadFaultHook(nullptr);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kCorruption);

  // The corruption touched only the delivered copy; storage stays healthy.
  const auto rerun = engine_.Execute(spec, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(SameResult(*baseline, *rerun));
}

TEST_F(EngineFaultTest, ShortReadMidQueryReturnsError) {
  ExecOptions options;
  options.planner.algorithm = Algorithm::kMtIndex;
  options.num_threads = 4;
  const QuerySpec spec = KnnSpec();
  const auto baseline = engine_.Execute(spec, options);
  ASSERT_TRUE(baseline.ok());

  FaultPolicyConfig config;
  config.short_nth_read = 3;
  FaultPolicy policy(config);
  engine_.SetReadFaultHook(&policy);
  const auto faulted = engine_.Execute(spec, options);
  engine_.SetReadFaultHook(nullptr);
  ASSERT_FALSE(faulted.ok());

  // The torn page was only the delivered copy: a clean rerun matches.
  const auto rerun = engine_.Execute(spec, options);
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(SameResult(*baseline, *rerun));
}

// kAuto planning snapshots the index tree before it prices any plan. A
// failed node read there is a Status like any other: the planned range,
// k-NN and join queries each return it, and once the hook is gone the same
// queries plan and answer exactly as the oracle does.
TEST_F(EngineFaultTest, AutoPlanningSurfacesIndexReadFailure) {
  JoinQuerySpec join = JoinSpec();
  join.mode = JoinMode::kDistance;  // the oracle's pair set is exact here
  const std::vector<QuerySpec> specs = {RangeSpec(), KnnSpec(), join};
  ExecOptions options;
  options.planner.algorithm = Algorithm::kAuto;

  FaultPolicyConfig config;
  config.fail_every_k = 1;
  FaultPolicy policy(config);
  engine_.SetReadFaultHook(&policy);
  for (const QuerySpec& spec : specs) {
    EXPECT_FALSE(engine_.Execute(spec, options).ok())
        << "query kind " << spec.index();
  }
  engine_.SetReadFaultHook(nullptr);
  EXPECT_GE(policy.faults_injected(), 1u);

  const tsq::testing::Oracle oracle(engine_.dataset());
  const auto range = engine_.Execute(specs[0], options);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  std::vector<Match> got = range->range()->matches;
  std::vector<Match> want = oracle.Range(std::get<RangeQuerySpec>(specs[0]));
  SortMatches(&got);
  SortMatches(&want);
  EXPECT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].series_id, want[i].series_id);
    EXPECT_EQ(got[i].transform_index, want[i].transform_index);
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-6);
  }

  const auto knn = engine_.Execute(specs[1], options);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  const std::vector<KnnMatch> neighbours =
      oracle.Knn(std::get<KnnQuerySpec>(specs[1]));
  ASSERT_EQ(knn->knn()->matches.size(), neighbours.size());
  for (std::size_t i = 0; i < neighbours.size(); ++i) {
    EXPECT_EQ(knn->knn()->matches[i].series_id, neighbours[i].series_id);
    EXPECT_NEAR(knn->knn()->matches[i].distance, neighbours[i].distance,
                1e-6);
  }

  const auto pairs = engine_.Execute(specs[2], options);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  std::vector<JoinMatch> got_pairs = pairs->join()->matches;
  std::vector<JoinMatch> want_pairs = oracle.Join(join);
  SortJoinMatches(&got_pairs);
  SortJoinMatches(&want_pairs);
  EXPECT_FALSE(want_pairs.empty());
  ASSERT_EQ(got_pairs.size(), want_pairs.size());
  for (std::size_t i = 0; i < got_pairs.size(); ++i) {
    EXPECT_EQ(got_pairs[i].a, want_pairs[i].a);
    EXPECT_EQ(got_pairs[i].b, want_pairs[i].b);
    EXPECT_EQ(got_pairs[i].transform_index, want_pairs[i].transform_index);
    EXPECT_NEAR(got_pairs[i].value, want_pairs[i].value, 1e-6);
  }
}

TEST_F(EngineFaultTest, FetchSpectrumOutOfRangeIsStatusNotDeath) {
  // A corrupted index leaf can hand the verifier an arbitrary sequence id;
  // that must come back as a Status, not a CHECK abort.
  const Dataset& dataset = engine_.dataset();
  const auto result = dataset.FetchSpectrum(dataset.size());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  const auto far = dataset.FetchSpectrum(1u << 20);
  ASSERT_FALSE(far.ok());
  EXPECT_EQ(far.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace tsq::core
