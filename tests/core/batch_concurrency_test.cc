// Thread-safety of SimilarityEngine::ExecuteBatch (run under TSAN by
// scripts/tsan_write_tests.sh): several threads issue batches while a writer
// commits Insert/Remove continuously. Every batch must pin exactly ONE
// snapshot for all of its entries, versions must be monotone per issuing
// thread, no entry may error, and duplicate specs within one batch must come
// back bitwise identical.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "test_util.h"
#include "gtest/gtest.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

std::string ExactDiff(const QueryResult& a, const QueryResult& b) {
  if (const auto* range = a.range()) {
    if (b.range() == nullptr) return "kind mismatch";
    if (range->matches.size() != b.range()->matches.size()) {
      return "range count mismatch";
    }
    for (std::size_t i = 0; i < range->matches.size(); ++i) {
      if (!(range->matches[i] == b.range()->matches[i])) {
        return "range match " + std::to_string(i) + " differs";
      }
    }
    return "";
  }
  if (const auto* knn = a.knn()) {
    if (b.knn() == nullptr) return "kind mismatch";
    if (knn->matches.size() != b.knn()->matches.size()) {
      return "knn count mismatch";
    }
    for (std::size_t i = 0; i < knn->matches.size(); ++i) {
      if (knn->matches[i].series_id != b.knn()->matches[i].series_id ||
          knn->matches[i].distance != b.knn()->matches[i].distance) {
        return "knn match " + std::to_string(i) + " differs";
      }
    }
    return "";
  }
  if (a.join() == nullptr || b.join() == nullptr) return "kind mismatch";
  if (a.join()->matches.size() != b.join()->matches.size()) {
    return "join count mismatch";
  }
  for (std::size_t i = 0; i < a.join()->matches.size(); ++i) {
    if (!(a.join()->matches[i] == b.join()->matches[i])) {
      return "join match " + std::to_string(i) + " differs";
    }
  }
  return "";
}

TEST(BatchConcurrencyTest, ConcurrentBatchesUnderContinuousWrites) {
  SimilarityEngine engine(testutil::Stocks(48, 128, 101));
  constexpr std::size_t kQueryThreads = 8;
  constexpr std::size_t kBatchesPerThread = 5;
  constexpr std::size_t kWriterOps = 24;

  // Batches are prepared BEFORE any writer starts: building specs reads the
  // dataset's normal forms, which only the pre-write snapshot guarantees.
  // Entry layout per thread: [range A, range B, knn, range A again] — the
  // duplicate checks in-batch determinism at whatever snapshot the batch
  // pins.
  std::vector<std::vector<QuerySpec>> batches(kQueryThreads);
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    RangeQuerySpec a;
    a.query = ts::Denormalize(engine.dataset().normal(t));
    a.transforms = transform::MovingAverageRange(128, 4, 12);
    a.epsilon = ts::CorrelationToDistanceThreshold(0.95, 128);
    RangeQuerySpec b;
    b.query = ts::Denormalize(engine.dataset().normal(t + 8));
    b.transforms = transform::MovingAverageRange(128, 4, 12);
    b.epsilon = ts::CorrelationToDistanceThreshold(0.97, 128);
    KnnQuerySpec knn;
    knn.query = ts::Denormalize(engine.dataset().normal(t + 16));
    knn.k = 4;
    knn.transforms = transform::MovingAverageRange(128, 4, 12);
    batches[t] = {QuerySpec(a), QuerySpec(b), QuerySpec(knn), QuerySpec(a)};
  }

  std::atomic<bool> stop{false};
  std::string writer_failure;
  std::thread writer([&] {
    Rng rng(2026);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < engine.dataset().size(); ++i) live.push_back(i);
    for (std::size_t op = 0; op < kWriterOps && !stop.load(); ++op) {
      if (live.size() < 40 || rng.Bernoulli(0.6)) {
        const auto id =
            engine.Insert(ts::GenerateRandomWalk(engine.length(), 500.0, rng));
        if (!id.ok()) {
          writer_failure = "insert failed: " + id.status().ToString();
          return;
        }
        live.push_back(*id);
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        const Status removed = engine.Remove(live[pick]);
        if (!removed.ok()) {
          writer_failure = "remove failed: " + removed.ToString();
          return;
        }
        live.erase(live.begin() + pick);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::string> failures(kQueryThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto fail = [&](const std::string& what) {
        if (failures[t].empty()) failures[t] = what;
      };
      std::uint64_t last_version = 0;
      for (std::size_t round = 0; round < kBatchesPerThread; ++round) {
        BatchOptions options;
        options.exec.planner.algorithm =
            round % 2 == 0 ? Algorithm::kAuto : Algorithm::kMtIndex;
        options.exec.num_threads = 2;
        const auto batch = engine.ExecuteBatch(batches[t], options);
        if (batch.size() != batches[t].size()) {
          fail("wrong batch size");
          return;
        }
        std::uint64_t version = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (!batch[i].ok()) {
            fail("entry " + std::to_string(i) +
                 " errored: " + batch[i].status().ToString());
            return;
          }
          const std::uint64_t v = batch[i]->trace().snapshot_version;
          if (i == 0) {
            version = v;
          } else if (v != version) {
            fail("batch pinned two snapshots: v" + std::to_string(version) +
                 " and v" + std::to_string(v));
            return;
          }
        }
        if (version < last_version) {
          fail("snapshot went backwards: v" + std::to_string(version) +
               " after v" + std::to_string(last_version));
          return;
        }
        last_version = version;
        // Entry 3 duplicates entry 0 and ran at the same pinned snapshot.
        const std::string diff = ExactDiff(*batch[0], *batch[3]);
        if (!diff.empty()) {
          fail("duplicate diverged from original: " + diff);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  writer.join();

  EXPECT_TRUE(writer_failure.empty()) << writer_failure;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

TEST(BatchConcurrencyTest, ConcurrentIdenticalBatchesAgree) {
  // Many threads race the SAME two-spec batch: every entry of every batch
  // executes, and all of them must come back identical — no torn entries,
  // no deadlocks.
  SimilarityEngine engine(testutil::Stocks(40, 128, 107));
  RangeQuerySpec spec;
  spec.query = ts::Denormalize(engine.dataset().normal(3));
  spec.transforms = transform::MovingAverageRange(128, 5, 11);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);
  const std::vector<QuerySpec> specs = {QuerySpec(spec), QuerySpec(spec)};

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<Result<QueryResult>>> outputs(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      BatchOptions options;
      options.exec.num_threads = 2;
      outputs[t] = engine.ExecuteBatch(specs, options);
    });
  }
  for (std::thread& worker : workers) worker.join();

  const QueryResult* reference = nullptr;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(outputs[t].size(), 2u);
    for (const auto& entry : outputs[t]) {
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      if (reference == nullptr) {
        reference = &*entry;
      } else {
        EXPECT_EQ(ExactDiff(*reference, *entry), "");
      }
    }
  }
}

}  // namespace
}  // namespace tsq::core
