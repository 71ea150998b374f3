// Hammer test for the thread-safety contract: any number of Execute() calls
// may run concurrently on one engine as long as nothing mutates it. Eight
// threads fire mixed queries against a shared engine with a small simulated
// per-page latency (to widen race windows); every thread must get exactly
// the single-threaded answer.

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "../core/test_util.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"

namespace tsq::core {
namespace {

TEST(ExecutorConcurrencyTest, EightConcurrentExecutesAgree) {
  SimilarityEngine engine(testutil::Stocks(200, 128, 202));
  engine.SetSimulatedDiskLatency(2'000);  // 2us per page read

  RangeQuerySpec range;
  range.query = ts::Denormalize(engine.dataset().normal(9));
  range.transforms = transform::MovingAverageRange(128, 5, 20);
  range.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);

  KnnQuerySpec knn;
  knn.query = ts::Denormalize(engine.dataset().normal(17));
  knn.k = 5;
  knn.transforms = transform::MovingAverageRange(128, 5, 12);

  JoinQuerySpec join;
  join.mode = JoinMode::kCorrelation;
  join.min_correlation = 0.99;
  join.transforms = transform::MovingAverageRange(128, 5, 9);

  // Single-threaded ground truth, one per (query, algorithm) combination.
  struct Workload {
    QuerySpec spec;
    ExecOptions options;
    std::vector<Match> range_matches;
    std::vector<KnnMatch> knn_matches;
    std::vector<JoinMatch> join_matches;
  };
  std::vector<Workload> workloads;
  for (const Algorithm algorithm :
       {Algorithm::kSequentialScan, Algorithm::kStIndex,
        Algorithm::kMtIndex}) {
    workloads.push_back({range, {.planner = {.algorithm = algorithm}}, {}, {}, {}});
    workloads.push_back({knn, {.planner = {.algorithm = algorithm}}, {}, {}, {}});
    if (algorithm != Algorithm::kStIndex) {
      workloads.push_back({join, {.planner = {.algorithm = algorithm}}, {}, {}, {}});
    }
  }
  for (Workload& w : workloads) {
    const auto baseline = engine.Execute(w.spec, w.options);
    ASSERT_TRUE(baseline.ok());
    if (const auto* r = baseline->range()) w.range_matches = r->matches;
    if (const auto* k = baseline->knn()) w.knn_matches = k->matches;
    if (const auto* j = baseline->join()) w.join_matches = j->matches;
  }

  // Hammer: 8 threads, each looping over every workload (worker threads of
  // the parallel executor nest inside these callers at num_threads=2).
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &workloads, &failures, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
          const Workload& workload = workloads[(w + t) % workloads.size()];
          ExecOptions options = workload.options;
          options.num_threads = 1 + (t % 2);
          const auto result = engine.Execute(workload.spec, options);
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          bool ok = true;
          if (const auto* r = result->range()) {
            ok = r->matches == workload.range_matches;
          } else if (const auto* k = result->knn()) {
            ok = k->matches.size() == workload.knn_matches.size();
            for (std::size_t i = 0; ok && i < k->matches.size(); ++i) {
              ok = k->matches[i].series_id ==
                       workload.knn_matches[i].series_id &&
                   k->matches[i].distance == workload.knn_matches[i].distance;
            }
          } else if (const auto* j = result->join()) {
            ok = j->matches == workload.join_matches;
          }
          if (!ok) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The engine is still sound and mutable once the storm has passed.
  engine.SetSimulatedDiskLatency(0);
  const auto after = engine.Execute(range);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->range()->matches.empty());
}

}  // namespace
}  // namespace tsq::core
