#include "exec/parallel.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tsq::exec {
namespace {

TEST(EffectiveThreadsTest, ZeroMeansHardware) {
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_EQ(EffectiveThreads(1), 1u);
  EXPECT_EQ(EffectiveThreads(7), 7u);
}

TEST(ParallelForTest, EveryTaskRunsExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> runs(101);
    for (auto& r : runs) r.store(0);
    const Status status =
        ParallelFor(threads, runs.size(), [&runs](std::size_t i) {
          runs[i].fetch_add(1);
          return Status::Ok();
        });
    EXPECT_TRUE(status.ok());
    for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  }
}

TEST(ParallelForTest, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  Status status = ParallelFor(1, 8, [caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  // Zero tasks: trivially OK, no worker spun up.
  EXPECT_TRUE(ParallelFor(8, 0, [](std::size_t) {
                return Status::Internal("never called");
              }).ok());
}

TEST(ParallelForTest, ReturnsLowestFailingTaskAndStillRunsAll) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    const Status status =
        ParallelFor(threads, 64, [&ran](std::size_t i) -> Status {
          ran.fetch_add(1);
          if (i == 9 || i == 40) {
            return Status::Internal("task " + std::to_string(i));
          }
          return Status::Ok();
        });
    EXPECT_EQ(ran.load(), 64);  // failures never cancel other tasks
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("task 9"), std::string::npos);
  }
}

TEST(ParallelForTest, LargeFanOutReportsLowestFailure) {
  // A million-item fan-out: errors are captured in a single slot, not an
  // O(count) status array, and the lowest failing index still wins even
  // when a later task fails first in wall-clock order.
  constexpr std::size_t kCount = 1'000'000;
  std::atomic<std::size_t> ran{0};
  const Status status =
      ParallelFor(8, kCount, [&ran](std::size_t i) -> Status {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 123'456 || i == 900'000) {
          return Status::Internal("task " + std::to_string(i));
        }
        return Status::Ok();
      });
  EXPECT_EQ(ran.load(), kCount);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("task 123456"), std::string::npos);
}

TEST(ParallelForBatchTest, LowestFailingSubtaskPerItemAndEverySubtaskRuns) {
  // Item 1 has no subtasks; item 2 never fails; the others fail at several
  // subtasks, the lowest of which is slowed down so that a higher one fails
  // first in wall-clock order when workers run in parallel.
  const std::vector<std::size_t> counts = {5, 0, 7, 3, 9};
  const std::vector<std::vector<std::size_t>> failing = {
      {3, 1}, {}, {}, {2}, {8, 4, 6}};
  const std::vector<std::size_t> lowest = {1, 0, 0, 2, 4};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::vector<std::atomic<int>>> runs;
    for (const std::size_t count : counts) {
      runs.emplace_back(count);
      for (auto& r : runs.back()) r.store(0);
    }
    const std::vector<Status> statuses = ParallelForBatch(
        threads, counts,
        [&](std::size_t item, std::size_t subtask) -> Status {
          runs[item][subtask].fetch_add(1);
          for (const std::size_t bad : failing[item]) {
            if (subtask != bad) continue;
            if (bad == lowest[item]) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            return Status::Internal("item " + std::to_string(item) +
                                    " subtask " + std::to_string(subtask));
          }
          return Status::Ok();
        });
    ASSERT_EQ(statuses.size(), counts.size());
    for (std::size_t item = 0; item < counts.size(); ++item) {
      for (std::size_t subtask = 0; subtask < counts[item]; ++subtask) {
        EXPECT_EQ(runs[item][subtask].load(), 1)
            << threads << " threads, item " << item << " subtask " << subtask;
      }
      if (failing[item].empty()) {
        EXPECT_TRUE(statuses[item].ok()) << threads << " threads, item "
                                         << item;
        continue;
      }
      ASSERT_FALSE(statuses[item].ok()) << threads << " threads, item "
                                        << item;
      EXPECT_EQ(statuses[item].message(),
                "item " + std::to_string(item) + " subtask " +
                    std::to_string(lowest[item]))
          << threads << " threads";
    }
  }
}

TEST(ChunkTest, BoundsPartitionTheRange) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{255}, std::size_t{256},
                                  std::size_t{1000}}) {
    const std::size_t chunk = 256;
    const std::size_t chunks = ChunkCount(count, chunk);
    EXPECT_EQ(chunks, (count + chunk - 1) / chunk);
    std::size_t covered = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const ChunkRange r = ChunkBounds(count, chunk, c);
      EXPECT_EQ(r.first, covered);
      EXPECT_LE(r.last, count);
      EXPECT_LT(r.first, r.last);
      covered = r.last;
    }
    EXPECT_EQ(covered, count);
  }
}

}  // namespace
}  // namespace tsq::exec
