// Snapshot-isolation hammer: reader threads Execute() continuously while a
// writer thread commits Insert/Remove. Functionally every query must
// succeed (writes are invisible until committed, so no torn state can leak
// out as an error or a wrong result); under TSAN (scripts/
// tsan_write_tests.sh) the same schedule must also be race-free.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

RangeQuerySpec MakeSpec(const ts::Series& query) {
  RangeQuerySpec spec;
  spec.query = query;
  spec.transforms = transform::MovingAverageRange(16, 1, 5);
  spec.epsilon = 1.5;
  return spec;
}

// Final-state audit shared by both hammers: the index holds exactly one
// entry per live sequence and the indexed result matches the brute-force
// oracle.
void ExpectFinalConsistency(SimilarityEngine& engine,
                            const RangeQuerySpec& spec) {
  EXPECT_EQ(engine.index().tree().size(), engine.size());
  const testing::Oracle oracle(engine.dataset());
  const std::vector<Match> expected = oracle.Range(spec);
  ExecOptions options;
  options.planner.algorithm = Algorithm::kMtIndex;
  const auto result = engine.Execute(spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<Match> got = result->range()->matches;
  SortMatches(&got);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].series_id, expected[i].series_id);
  }
}

TEST(EngineWriteConcurrencyTest, EightExecutorsRaceAContinuousWriter) {
  const std::vector<ts::Series> series = testutil::Stocks(24, 16, 3);
  SimilarityEngine engine(series);
  const RangeQuerySpec spec = MakeSpec(series[0]);

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 25;
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::kSequentialScan, Algorithm::kStIndex, Algorithm::kMtIndex,
      Algorithm::kAuto};

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> query_failures{0};
  std::atomic<std::size_t> version_regressions{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_version = 0;
      for (int q = 0; q < kQueriesPerReader; ++q) {
        ExecOptions options;
        options.planner.algorithm = kAlgorithms[(r + q) % 4];
        options.num_threads = 1 + static_cast<std::size_t>(r % 2) * 3;
        const auto result = engine.Execute(spec, options);
        if (!result.ok()) {
          ++query_failures;
          continue;
        }
        // Snapshot versions are monotone per thread: a later pin can never
        // observe an earlier write state.
        const std::uint64_t version = result->trace().snapshot_version;
        if (version < last_version) ++version_regressions;
        last_version = version;
      }
    });
  }

  // The writer: alternate inserting a fresh walk and removing the
  // previously inserted one, so both write paths run continuously and the
  // dataset stays near its original size.
  std::size_t writes = 0;
  std::thread writer([&] {
    Rng rng(77);
    std::size_t pending = SIZE_MAX;  // last inserted, not yet removed
    while (!stop.load(std::memory_order_relaxed)) {
      if (pending == SIZE_MAX) {
        const auto id = engine.Insert(ts::GenerateRandomWalk(16, 500.0, rng));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        pending = *id;
      } else {
        ASSERT_TRUE(engine.Remove(pending).ok());
        pending = SIZE_MAX;
      }
      ++writes;
      std::this_thread::yield();
    }
  });

  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(version_regressions.load(), 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_EQ(engine.write_version(), writes);
  ExpectFinalConsistency(engine, spec);
}

TEST(EngineWriteConcurrencyTest, SaveToAndConfigRaceTheWriter) {
  // Persistence pins a read snapshot and configuration takes the write
  // lock; both must interleave cleanly with a writer and with queries.
  const std::vector<ts::Series> series = testutil::Stocks(20, 16, 5);
  SimilarityEngine engine(series);
  const RangeQuerySpec spec = MakeSpec(series[1]);
  const std::string prefix =
      ::testing::TempDir() + "/engine_write_concurrency";

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(31);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto id = engine.Insert(ts::GenerateRandomWalk(16, 500.0, rng));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(engine.Remove(*id).ok());
      std::this_thread::yield();
    }
  });
  std::thread querier([&] {
    for (int q = 0; q < 40; ++q) {
      ExecOptions options;
      options.planner.algorithm = Algorithm::kAuto;
      const auto result = engine.Execute(spec, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(engine.SaveTo(prefix).ok());
    engine.SetSimulatedDiskLatency(i % 2 == 0 ? 1'000 : 0);
  }
  querier.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  engine.SetSimulatedDiskLatency(0);

  // The last save is loadable and internally consistent (it captured some
  // committed prefix of the write history).
  const auto loaded = SimilarityEngine::LoadFrom(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->index().tree().size(), (*loaded)->size());
  ExpectFinalConsistency(engine, spec);
}

}  // namespace
}  // namespace tsq::core
