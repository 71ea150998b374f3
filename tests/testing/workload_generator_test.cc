#include "testing/workload_generator.h"

#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <variant>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/oracle.h"

namespace tsq::testing {
namespace {

class WorkloadGeneratorTest : public ::testing::Test {
 protected:
  WorkloadGeneratorTest()
      : generator_(11), engine_(generator_.MakeSeries()),
        oracle_(engine_.dataset()) {}

  WorkloadGenerator generator_;
  core::SimilarityEngine engine_;
  Oracle oracle_;
};

TEST_F(WorkloadGeneratorTest, DatasetIsDeterministicInTheSeed) {
  const auto a = WorkloadGenerator(11).MakeSeries();
  const auto b = WorkloadGenerator(11).MakeSeries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Different seeds vary the recipe (size or length or values).
  const auto c = WorkloadGenerator(12).MakeSeries();
  EXPECT_TRUE(a.size() != c.size() || a[0].size() != c[0].size() ||
              a[0] != c[0]);
}

TEST_F(WorkloadGeneratorTest, CasesAreDeterministicInSeedAndIndex) {
  for (std::size_t index = 0; index < 6; ++index) {
    const WorkloadCase once = generator_.MakeCase(index, engine_, oracle_);
    const WorkloadCase twice = generator_.MakeCase(index, engine_, oracle_);
    EXPECT_EQ(once.lang_text, twice.lang_text);
    EXPECT_EQ(once.description, twice.description);
    EXPECT_EQ(once.spec.index(), twice.spec.index());
  }
}

TEST_F(WorkloadGeneratorTest, CyclesThroughAllThreeQueryKinds) {
  std::set<std::size_t> kinds;
  for (std::size_t index = 0; index < 6; ++index) {
    kinds.insert(generator_.MakeCase(index, engine_, oracle_).spec.index());
  }
  EXPECT_EQ(kinds.size(), 3u);  // range, k-NN and join all appear
}

TEST_F(WorkloadGeneratorTest, RangeThresholdsAreBoundaryFree) {
  // The chosen epsilon must sit in a clean gap of the oracle's distance
  // curve: no candidate distance may be anywhere near the threshold, so
  // engine-vs-oracle floating-point noise cannot flip a match.
  for (std::size_t index = 0; index < 30; index += 3) {
    const WorkloadCase work = generator_.MakeCase(index, engine_, oracle_);
    const auto* spec = std::get_if<core::RangeQuerySpec>(&work.spec);
    ASSERT_NE(spec, nullptr);
    for (const double d : oracle_.RangeDistances(*spec)) {
      EXPECT_GT(std::fabs(d - spec->epsilon), 1e-9 * (1.0 + spec->epsilon))
          << work.lang_text;
    }
  }
}

TEST_F(WorkloadGeneratorTest, OracleAgreesWithSequentialScan) {
  // The oracle is the ground truth of the differential fuzzer; pin it to the
  // engine's sequential scan (no index, no pruning on either side).
  core::ExecOptions options;
  options.planner.algorithm = core::Algorithm::kSequentialScan;
  for (std::size_t index = 0; index < 9; ++index) {
    const WorkloadCase work = generator_.MakeCase(index, engine_, oracle_);
    const auto result = engine_.Execute(work.spec, options);
    ASSERT_TRUE(result.ok()) << work.lang_text;
    if (const auto* spec = std::get_if<core::RangeQuerySpec>(&work.spec)) {
      auto got = result->range()->matches;
      core::SortMatches(&got);
      const auto expected = oracle_.Range(*spec);
      ASSERT_EQ(expected.size(), got.size()) << work.lang_text;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(expected[i].series_id, got[i].series_id) << work.lang_text;
        EXPECT_EQ(expected[i].transform_index, got[i].transform_index)
            << work.lang_text;
        EXPECT_NEAR(expected[i].distance, got[i].distance, 1e-9)
            << work.lang_text;
      }
    } else if (const auto* knn = std::get_if<core::KnnQuerySpec>(&work.spec)) {
      const auto expected = oracle_.Knn(*knn);
      const auto& got = result->knn()->matches;
      ASSERT_EQ(expected.size(), got.size()) << work.lang_text;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(expected[i].series_id, got[i].series_id) << work.lang_text;
        EXPECT_NEAR(expected[i].distance, got[i].distance, 1e-9)
            << work.lang_text;
      }
    } else {
      const auto& spec = std::get<core::JoinQuerySpec>(work.spec);
      auto got = result->join()->matches;
      core::SortJoinMatches(&got);
      const auto expected = oracle_.Join(spec);
      ASSERT_EQ(expected.size(), got.size()) << work.lang_text;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(expected[i].a, got[i].a) << work.lang_text;
        EXPECT_EQ(expected[i].b, got[i].b) << work.lang_text;
        EXPECT_EQ(expected[i].transform_index, got[i].transform_index)
            << work.lang_text;
        EXPECT_NEAR(expected[i].value, got[i].value, 1e-9) << work.lang_text;
      }
    }
  }
}

TEST_F(WorkloadGeneratorTest, QueryTransformCasesAreRealPreservingAndNonTrivial) {
  std::size_t matches = 0;
  for (std::size_t index = 0; index < 12; ++index) {
    const WorkloadCase work =
        generator_.MakeQueryTransformCase(index, engine_, oracle_);
    EXPECT_EQ(work.description,
              generator_.MakeQueryTransformCase(index, engine_, oracle_)
                  .description);
    EXPECT_TRUE(work.lang_text.empty());
    const std::optional<transform::SpectralTransform>* query_transform =
        nullptr;
    if (const auto* range = std::get_if<core::RangeQuerySpec>(&work.spec)) {
      EXPECT_EQ(index % 2, 0u);
      query_transform = &range->query_transform;
      const std::vector<core::Match> expected = oracle_.Range(*range);
      matches += expected.size();
      for (const double d : oracle_.RangeDistances(*range)) {
        EXPECT_GT(std::fabs(d - range->epsilon),
                  1e-9 * (1.0 + range->epsilon))
            << work.description;
      }
    } else {
      const auto& knn = std::get<core::KnnQuerySpec>(work.spec);
      EXPECT_EQ(index % 2, 1u);
      query_transform = &knn.query_transform;
      EXPECT_GE(knn.k, 1u);
    }
    ASSERT_TRUE(query_transform->has_value()) << work.description;
    EXPECT_TRUE((*query_transform)->PreservesRealSequences())
        << work.description;
  }
  EXPECT_GT(matches, 0u);  // the range thresholds admit some matches
}

TEST(DifferentialRunnerTest, CleanSweepPassesOnAFreshSeed) {
  DifferentialRunner runner(42);
  DiffConfig config;
  config.with_faults = false;
  for (std::size_t index = 0; index < 3; ++index) {
    const CaseOutcome outcome = runner.RunCase(index, config);
    EXPECT_TRUE(outcome.passed) << outcome.failure;
    // 4 algorithms x (3 thread counts + 1 run under the other kernel ISA)
    EXPECT_EQ(outcome.runs, 16u);
    EXPECT_EQ(outcome.fault_runs, 0u);
  }
}

TEST(DifferentialRunnerTest, QueryTransformSweepPassesOnAFreshSeed) {
  DifferentialRunner runner(44);
  DiffConfig config;
  config.with_faults = false;
  for (std::size_t index = 0; index < 4; ++index) {
    const CaseOutcome outcome = runner.RunQueryTransformCase(index, config);
    EXPECT_TRUE(outcome.passed) << outcome.failure;
    // 4 algorithms x (3 thread counts + 1 run under the other kernel ISA)
    EXPECT_EQ(outcome.runs, 16u);
  }
}

TEST(DifferentialRunnerTest, FaultSweepInjectsAndSurvives) {
  DifferentialRunner runner(43);
  const CaseOutcome outcome = runner.RunCase(0);
  EXPECT_TRUE(outcome.passed) << outcome.failure;
  // 7 policies x 2 configurations.
  EXPECT_EQ(outcome.fault_runs, 14u);
  // At least the fail-nth(1) policies must have surfaced errors; the delay
  // policy never errors.
  EXPECT_GE(outcome.fault_errors, 2u);
  EXPECT_LT(outcome.fault_errors, outcome.fault_runs);
}

// One case per concurrent-write, batch and checkpoint mode, with the counts
// that pin what ran: each mode's configurations, fault runs, crash points
// and writes are fixed by the seed and the case index.
TEST(DifferentialRunnerTest, MutateCaseChecksEveryRunAtItsPinnedVersion) {
  DifferentialRunner runner(42);
  const CaseOutcome outcome = runner.RunMutateCase(0);
  EXPECT_TRUE(outcome.passed) << outcome.failure;
  EXPECT_EQ(outcome.runs, 16u);  // 2 passes x 4 algorithms x 2 thread counts
  EXPECT_EQ(outcome.writes, 9u);  // 5 inserts + 4 removes
  EXPECT_EQ(outcome.fault_runs, 0u);
  // The writes grew the dataset; a plain case on the same runner evaluates
  // its oracle over the grown dataset, ids appended by the writer included.
  const CaseOutcome after = runner.RunCase(0, {.with_faults = false});
  EXPECT_TRUE(after.passed) << after.failure;
  EXPECT_EQ(after.runs, 16u);
}

TEST(DifferentialRunnerTest, BatchCaseMatchesSequentialAndSurvivesFaults) {
  DifferentialRunner runner(42);
  const CaseOutcome outcome = runner.RunBatchCase(0);
  EXPECT_TRUE(outcome.passed) << outcome.failure;
  // 4 algorithms x 7 specs of sequential baselines, then 4 x 3 batches.
  EXPECT_EQ(outcome.runs, 40u);
  EXPECT_EQ(outcome.fault_runs, 14u);  // 7 policies x 2 configurations
  EXPECT_EQ(outcome.writes, 0u);
}

TEST(DifferentialRunnerTest, BatchMutateCasePinsOneVersionPerBatch) {
  DifferentialRunner runner(42);
  const CaseOutcome outcome = runner.RunBatchMutateCase(0);
  EXPECT_TRUE(outcome.passed) << outcome.failure;
  EXPECT_EQ(outcome.runs, 8u);    // 4 algorithms x 2 thread counts
  EXPECT_EQ(outcome.writes, 7u);  // 4 inserts + 3 removes
}

TEST(DifferentialRunnerTest, CheckpointCaseRecoversAtEveryCrashPoint) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "tsq_differential_ckpt";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  DifferentialRunner runner(42);
  const CaseOutcome outcome =
      runner.RunCheckpointCase(0, (dir / "ckpt").string());
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(outcome.passed) << outcome.failure;
  EXPECT_EQ(outcome.fault_runs, 27u);  // crash points swept
  EXPECT_EQ(outcome.fault_errors, 27u);
  // Two algorithms per recovered engine: 27 crashes plus the completed save.
  EXPECT_EQ(outcome.runs, 56u);
  EXPECT_EQ(outcome.writes, 5u);  // 3 inserts + 2 removes
}

}  // namespace
}  // namespace tsq::testing
