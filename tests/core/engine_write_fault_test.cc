// Write-path fault audit: Insert and Remove driven through every fault
// policy must leave the engine consistent — the tree's entry count equals
// the live-sequence count and every algorithm still matches a fresh
// brute-force oracle — whether the write committed or was compensated.

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "plan/planner.h"
#include "test_util.h"
#include "testing/fault_policy.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

using tsq::testing::FaultPolicy;
using tsq::testing::FaultPolicyConfig;

// Every fault kind the policy knows, at several ordinals: hard failures on
// the first reads an index mutation issues, periodic failures that strike
// mid-restructure, checksum corruption, torn reads, and latency-only (which
// must never fail a write).
std::vector<FaultPolicyConfig> AllPolicies() {
  std::vector<FaultPolicyConfig> list;
  for (std::uint64_t nth = 1; nth <= 6; ++nth) {
    FaultPolicyConfig p;
    p.fail_nth_read = nth;
    list.push_back(p);
  }
  FaultPolicyConfig p;
  p.fail_nth_read = 2;
  p.failure_code = StatusCode::kCorruption;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.fail_every_k = 1;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.fail_every_k = 3;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.corrupt_nth_read = 1;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.corrupt_nth_read = 4;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.short_nth_read = 2;
  p.short_read_bytes = 256;
  list.push_back(p);
  p = FaultPolicyConfig();
  p.delay_nanos = 1000;
  list.push_back(p);
  return list;
}

class EngineWriteFaultTest : public ::testing::Test {
 protected:
  EngineWriteFaultTest()
      : series_(testutil::Stocks(32, 16, 11)), engine_(series_), rng_(401) {}

  RangeQuerySpec RangeSpec() const {
    RangeQuerySpec spec;
    spec.query = series_[0];
    spec.transforms = transform::MovingAverageRange(16, 1, 6);
    spec.epsilon = 1.5;
    return spec;
  }

  ts::Series NewSeries() { return ts::GenerateRandomWalk(16, 500.0, rng_); }

  // Post-write equivalence: scan, ST and MT must all agree with a
  // brute-force oracle built over the current dataset, and the index must
  // hold exactly one entry per live sequence (a compensated write rebuilt
  // it; a committed one updated it in place).
  void ExpectConsistent(const std::string& context) {
    EXPECT_EQ(engine_.index().tree().size(), engine_.size()) << context;
    const testing::Oracle oracle(engine_.dataset());
    const RangeQuerySpec spec = RangeSpec();
    const std::vector<Match> expected = oracle.Range(spec);
    for (const Algorithm algorithm :
         {Algorithm::kSequentialScan, Algorithm::kStIndex,
          Algorithm::kMtIndex}) {
      ExecOptions options;
      options.planner.algorithm = algorithm;
      const auto result = engine_.Execute(spec, options);
      ASSERT_TRUE(result.ok())
          << context << " " << AlgorithmName(algorithm) << ": "
          << result.status().ToString();
      std::vector<Match> got = result->range()->matches;
      SortMatches(&got);
      ASSERT_EQ(got.size(), expected.size())
          << context << " " << AlgorithmName(algorithm);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].series_id, expected[i].series_id) << context;
        EXPECT_EQ(got[i].transform_index, expected[i].transform_index)
            << context;
        EXPECT_NEAR(got[i].distance, expected[i].distance,
                    1e-9 * (1.0 + expected[i].distance))
            << context;
      }
    }
  }

  std::vector<ts::Series> series_;
  SimilarityEngine engine_;
  Rng rng_;
};

TEST_F(EngineWriteFaultTest, InsertUnderEveryPolicyCommitsOrRollsBack) {
  for (const FaultPolicyConfig& config : AllPolicies()) {
    const std::size_t size_before = engine_.size();
    const std::uint64_t version_before = engine_.write_version();
    // The last committed id's cartesian coefficients, to compare after a
    // rolled-back insert.
    const std::size_t last = engine_.dataset().size() - 1;
    const std::vector<dft::Complex> last_coefficients(
        engine_.dataset().coefficients(last).begin(),
        engine_.dataset().coefficients(last).end());
    FaultPolicy policy(config);
    engine_.SetReadFaultHook(&policy);
    const Result<std::size_t> id = engine_.Insert(NewSeries());
    engine_.SetReadFaultHook(nullptr);
    if (id.ok()) {
      EXPECT_EQ(engine_.size(), size_before + 1) << policy.Describe();
      EXPECT_FALSE(engine_.dataset().removed(*id)) << policy.Describe();
      EXPECT_EQ(engine_.write_version(), version_before + 1)
          << policy.Describe();
      EXPECT_TRUE(testutil::CoefficientsMatchRecord(engine_.dataset(), *id))
          << policy.Describe();
    } else {
      EXPECT_TRUE(testutil::CoefficientsMatchRecord(engine_.dataset(), last))
          << policy.Describe();
      EXPECT_EQ(std::memcmp(engine_.dataset().coefficients(last).data(),
                            last_coefficients.data(),
                            engine_.dataset().coefficients(last).size_bytes()),
                0)
          << policy.Describe();
      // Failed either in the record append (nothing changed, no version
      // bump) or in the index insertion (appended id tombstoned and index
      // rebuilt — a state change, so the version moved). Either way the
      // live count is unchanged and the failed id can never match a query.
      EXPECT_EQ(engine_.size(), size_before) << policy.Describe();
      EXPECT_LE(engine_.write_version(), version_before + 1)
          << policy.Describe();
      EXPECT_GE(engine_.write_version(), version_before) << policy.Describe();
    }
    ExpectConsistent("insert under " + policy.Describe());
  }
}

TEST_F(EngineWriteFaultTest, RemoveUnderEveryPolicyAlwaysCommits) {
  std::size_t victim = 0;
  for (const FaultPolicyConfig& config : AllPolicies()) {
    const std::size_t size_before = engine_.size();
    const std::uint64_t version_before = engine_.write_version();
    FaultPolicy policy(config);
    engine_.SetReadFaultHook(&policy);
    const Status removed = engine_.Remove(victim);
    engine_.SetReadFaultHook(nullptr);
    // The tombstone is the commit point and cannot fail, so a remove of a
    // live id returns Ok under any read-fault schedule.
    EXPECT_TRUE(removed.ok()) << policy.Describe() << ": "
                              << removed.ToString();
    EXPECT_EQ(engine_.size(), size_before - 1) << policy.Describe();
    EXPECT_TRUE(engine_.dataset().removed(victim)) << policy.Describe();
    EXPECT_EQ(engine_.write_version(), version_before + 1)
        << policy.Describe();
    // Removing it again is NotFound — and does not bump the version.
    EXPECT_EQ(engine_.Remove(victim).code(), StatusCode::kNotFound);
    EXPECT_EQ(engine_.write_version(), version_before + 1);
    ExpectConsistent("remove under " + policy.Describe());
    ++victim;
  }
}

TEST_F(EngineWriteFaultTest, InsertRollbackBumpsEpoch) {
  const std::uint64_t epoch_before = engine_.planner().epoch();

  FaultPolicyConfig config;
  // Read #1 is the record store's current-page read (the append must
  // succeed); read #2 is the tree's root page — failing there forces the
  // tombstone-and-rebuild compensation.
  config.fail_nth_read = 2;
  FaultPolicy policy(config);
  engine_.SetReadFaultHook(&policy);
  const Result<std::size_t> id = engine_.Insert(NewSeries());
  engine_.SetReadFaultHook(nullptr);
  ASSERT_FALSE(id.ok());
  EXPECT_GE(policy.faults_injected(), 1u);
  // The epoch must move even on a rolled-back insert: the rebuild produced a
  // different tree shape, so cached plans priced a structure that no longer
  // exists.
  EXPECT_GT(engine_.planner().epoch(), epoch_before);
  ExpectConsistent("rolled-back insert");
}

TEST_F(EngineWriteFaultTest, InvalidWritesDoNotBumpTheVersion) {
  const std::uint64_t version = engine_.write_version();
  EXPECT_EQ(engine_.Insert(ts::Series{1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.Remove(1u << 20).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.write_version(), version);
}

TEST_F(EngineWriteFaultTest, AlternatingFaultedWritesStayConsistent) {
  // A longer mixed sequence: every odd write runs under a periodic-failure
  // policy, every even write runs clean; the engine must stay equivalent to
  // the oracle throughout.
  FaultPolicyConfig config;
  config.fail_every_k = 5;
  std::size_t victim = 20;
  for (int step = 0; step < 8; ++step) {
    FaultPolicy policy(config);
    if (step % 2 == 1) engine_.SetReadFaultHook(&policy);
    if (step % 3 == 0) {
      (void)engine_.Remove(victim++);
    } else {
      (void)engine_.Insert(NewSeries());
    }
    engine_.SetReadFaultHook(nullptr);
  }
  ExpectConsistent("alternating faulted writes");
}

}  // namespace
}  // namespace tsq::core
