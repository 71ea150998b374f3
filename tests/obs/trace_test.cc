#include "obs/trace.h"

#include <string>

#include "common/clock.h"
#include "gtest/gtest.h"

namespace tsq::obs {
namespace {

TEST(PhaseStatsTest, AddTaskAccumulatesSumMaxCountItems) {
  PhaseStats stats;
  EXPECT_TRUE(stats.empty());
  stats.AddTask(100, 7);
  stats.AddTask(250, 3);
  stats.AddTask(50, 0);
  EXPECT_FALSE(stats.empty());
  EXPECT_EQ(stats.nanos, 400u);
  EXPECT_EQ(stats.max_task_nanos, 250u);
  EXPECT_EQ(stats.tasks, 3u);
  EXPECT_EQ(stats.items, 10u);
}

TEST(TraceTest, PhaseNamesAreStable) {
  EXPECT_STREQ(PhaseName(Phase::kPlan), "plan");
  EXPECT_STREQ(PhaseName(Phase::kIndexTraversal), "index-traversal");
  EXPECT_STREQ(PhaseName(Phase::kBound), "bound");
  EXPECT_STREQ(PhaseName(Phase::kCandidateFetch), "candidate-fetch");
  EXPECT_STREQ(PhaseName(Phase::kVerification), "verification");
  EXPECT_STREQ(PhaseName(Phase::kMerge), "merge");
}

QueryTrace SampleTrace() {
  QueryTrace trace;
  trace.algorithm = "MT-index";
  trace.num_threads = 4;
  trace.total_nanos = 123456;
  trace.at(Phase::kPlan).AddTask(1000, 16);
  trace.at(Phase::kIndexTraversal).AddTask(2000, 40);
  trace.at(Phase::kVerification).AddTask(3000, 200);
  trace.at(Phase::kVerification).AddTask(1500, 100);
  trace.at(Phase::kMerge).AddTask(500, 12);
  return trace;
}

TEST(TraceTest, DeterministicSignatureExcludesTiming) {
  QueryTrace a = SampleTrace();
  QueryTrace b = SampleTrace();
  // Perturb every timing field of b: same tasks/items, wildly different
  // clocks. The signature must not change.
  b.total_nanos = 999;
  for (PhaseStats& phase : b.phases) {
    phase.nanos *= 17;
    phase.max_task_nanos += 1234;
  }
  b.num_threads = 8;
  EXPECT_EQ(a.DeterministicSignature(), b.DeterministicSignature());

  // Changing an item count must change it.
  b.at(Phase::kPlan).items += 1;
  EXPECT_NE(a.DeterministicSignature(), b.DeterministicSignature());
}

TEST(TraceTest, FormatTraceListsNonEmptyPhasesOnly) {
  const std::string text = FormatTrace(SampleTrace());
  EXPECT_NE(text.find("MT-index"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  EXPECT_NE(text.find("index-traversal"), std::string::npos);
  EXPECT_NE(text.find("verification"), std::string::npos);
  EXPECT_NE(text.find("merge"), std::string::npos);
  // kCandidateFetch was never recorded, so it is omitted.
  EXPECT_EQ(text.find("candidate-fetch"), std::string::npos);
}

TEST(TraceTest, JsonRenderingHasExpectedFields) {
  const std::string json = TraceToJson(SampleTrace());
  EXPECT_NE(json.find("\"algorithm\":\"MT-index\""), std::string::npos);
  EXPECT_NE(json.find("\"num_threads\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total_nanos\":123456"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks\":2"), std::string::npos);  // verification
  EXPECT_NE(json.find("\"items\":300"), std::string::npos);
  EXPECT_EQ(json.find("candidate-fetch"), std::string::npos);
  // Braces/brackets balance (cheap well-formedness check).
  int depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ClockTest, MonotonicNanosNeverGoesBackwards) {
  std::uint64_t prev = MonotonicNanos();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = MonotonicNanos();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace tsq::obs
