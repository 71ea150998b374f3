#include "core/result_cache.h"

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "test_util.h"
#include "gtest/gtest.h"
#include "testing/fault_policy.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace tsq::core {
namespace {

RangeQuerySpec SmallSpec() {
  RangeQuerySpec spec;
  Rng rng(7);
  spec.query = ts::GenerateRandomWalk(64, 500.0, rng);
  spec.transforms = transform::MovingAverageRange(64, 1, 4);
  spec.epsilon = 1.5;
  return spec;
}

plan::PlanKey KeyAt(std::uint64_t version, std::uint64_t epoch = 0) {
  const ResultCacheKey key =
      ComputeResultCacheKey(SmallSpec(), ExecOptions(), version, epoch);
  EXPECT_TRUE(key.cacheable);
  return key.key;
}

std::shared_ptr<const QueryResult> MakeValue(std::size_t id) {
  QueryResult result;
  RangeQueryResult range;
  range.matches.push_back(Match{id, 0, 0.25});
  result.value = std::move(range);
  return std::make_shared<const QueryResult>(std::move(result));
}

TEST(ResultCacheTest, HitReturnsTheExactPublishedResult) {
  ResultCache cache(8);
  const plan::PlanKey key = KeyAt(1);
  EXPECT_EQ(cache.Lookup(key), nullptr);

  const std::shared_ptr<const QueryResult> value = MakeValue(42);
  cache.Insert(key, value);
  const std::shared_ptr<const QueryResult> hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  // The cache serves the very object it was handed — hits are byte-identical
  // to the computed result by construction, not by copy.
  EXPECT_EQ(hit.get(), value.get());
  ASSERT_NE(hit->range(), nullptr);
  ASSERT_EQ(hit->range()->matches.size(), 1u);
  EXPECT_TRUE(hit->range()->matches[0] == value->range()->matches[0]);
}

TEST(ResultCacheTest, EvictionIsCapacityBoundAndLru) {
  ResultCache cache(3);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    cache.Insert(KeyAt(v), MakeValue(v));
  }
  EXPECT_EQ(cache.size(), 3u);
  // The two oldest are gone, the three newest are present.
  EXPECT_EQ(cache.Lookup(KeyAt(1)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyAt(2)), nullptr);
  EXPECT_NE(cache.Lookup(KeyAt(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyAt(4)), nullptr);
  EXPECT_NE(cache.Lookup(KeyAt(5)), nullptr);

  // A Lookup refreshes LRU position: touch 3, insert one more, and 4 — now
  // the least recently used — is the one evicted.
  EXPECT_NE(cache.Lookup(KeyAt(3)), nullptr);
  cache.Insert(KeyAt(6), MakeValue(6));
  EXPECT_NE(cache.Lookup(KeyAt(3)), nullptr);
  EXPECT_EQ(cache.Lookup(KeyAt(4)), nullptr);
}

TEST(ResultCacheTest, PinnedInFlightEntriesAreNeverEvicted) {
  ResultCache cache(2);
  const plan::PlanKey pinned = KeyAt(100);
  ASSERT_TRUE(cache.Pin(pinned));
  // A pinned, valueless entry is a miss but holds its slot.
  EXPECT_EQ(cache.Lookup(pinned), nullptr);

  // Heavy eviction pressure while the entry is in flight.
  for (std::uint64_t v = 1; v <= 6; ++v) {
    cache.Insert(KeyAt(v), MakeValue(v));
  }

  // Publishing still works: the reservation survived the pressure.
  cache.Insert(pinned, MakeValue(100));
  cache.Unpin(pinned);
  const std::shared_ptr<const QueryResult> hit = cache.Lookup(pinned);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->range()->matches[0].series_id, 100u);
}

TEST(ResultCacheTest, AbandonedPinIsErasedNotServed) {
  ResultCache cache(4);
  const plan::PlanKey key = KeyAt(9);
  ASSERT_TRUE(cache.Pin(key));
  EXPECT_EQ(cache.size(), 1u);
  // The computation failed: no Insert. Unpin must erase the reservation so
  // later lookups recompute instead of waiting on a corpse.
  cache.Unpin(key);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  // And the key is pinnable again.
  EXPECT_TRUE(cache.Pin(key));
  cache.Unpin(key);
}

TEST(ResultCacheTest, SecondPinOnExistingKeyReturnsFalse) {
  ResultCache cache(4);
  const plan::PlanKey key = KeyAt(11);
  EXPECT_TRUE(cache.Pin(key));
  EXPECT_FALSE(cache.Pin(key));  // someone else owns the computation
  cache.Insert(key, MakeValue(11));
  cache.Unpin(key);
  cache.Unpin(key);
  // Published value survives the unpins.
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(ResultCacheKeyTest, NonFiniteSpecsAreNeverCacheable) {
  const ExecOptions options;
  {
    RangeQuerySpec spec = SmallSpec();
    spec.epsilon = std::nan("");
    EXPECT_FALSE(ComputeResultCacheKey(spec, options, 1, 0).cacheable);
  }
  {
    RangeQuerySpec spec = SmallSpec();
    spec.query[3] = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(ComputeResultCacheKey(spec, options, 1, 0).cacheable);
  }
  {
    KnnQuerySpec spec;
    Rng rng(8);
    spec.query = ts::GenerateRandomWalk(64, 500.0, rng);
    spec.query[0] = std::nan("");
    spec.k = 3;
    spec.transforms = transform::MovingAverageRange(64, 1, 4);
    EXPECT_FALSE(ComputeResultCacheKey(spec, options, 1, 0).cacheable);
  }
}

TEST(ResultCacheKeyTest, KeySeparatesSnapshotEpochAndExecOptions) {
  const RangeQuerySpec spec = SmallSpec();
  const ExecOptions options;
  const plan::PlanKey base = ComputeResultCacheKey(spec, options, 5, 2).key;

  // Snapshot version and config epoch both enter the digest — this is the
  // cache's entire invalidation mechanism.
  EXPECT_FALSE(ComputeResultCacheKey(spec, options, 6, 2).key == base);
  EXPECT_FALSE(ComputeResultCacheKey(spec, options, 5, 3).key == base);

  // So do the execution options that change stats or plans.
  ExecOptions threads = options;
  threads.num_threads = 4;
  EXPECT_FALSE(ComputeResultCacheKey(spec, threads, 5, 2).key == base);
  ExecOptions forced = options;
  forced.planner.algorithm = Algorithm::kSequentialScan;
  EXPECT_FALSE(ComputeResultCacheKey(spec, forced, 5, 2).key == base);

  // And the exact epsilon (not the planner's banded epsilon).
  RangeQuerySpec wider = spec;
  wider.epsilon = spec.epsilon + 1e-9;
  EXPECT_FALSE(ComputeResultCacheKey(wider, options, 5, 2).key == base);

  // Identical inputs reproduce the identical key.
  EXPECT_TRUE(ComputeResultCacheKey(spec, options, 5, 2).key == base);
}

// ---------------------------------------------------------------------------
// Engine-level properties: ExecuteBatch is the cache's only client.

class ResultCacheEngineTest : public ::testing::Test {
 protected:
  ResultCacheEngineTest() : engine_(testutil::Stocks(50, 128, 77)) {}

  std::vector<QuerySpec> OneSpecBatch() {
    RangeQuerySpec spec;
    spec.query = ts::Denormalize(engine_.dataset().normal(0));
    spec.transforms = transform::MovingAverageRange(128, 5, 12);
    spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, 128);
    return {QuerySpec(spec)};
  }

  static void ExpectSameMatches(const QueryResult& a, const QueryResult& b) {
    ASSERT_NE(a.range(), nullptr);
    ASSERT_NE(b.range(), nullptr);
    ASSERT_EQ(a.range()->matches.size(), b.range()->matches.size());
    for (std::size_t i = 0; i < a.range()->matches.size(); ++i) {
      EXPECT_TRUE(a.range()->matches[i] == b.range()->matches[i]) << i;
    }
  }

  SimilarityEngine engine_;
};

TEST_F(ResultCacheEngineTest, RepeatBatchServesByteIdenticalHit) {
  const std::vector<QuerySpec> specs = OneSpecBatch();
  const auto first = engine_.ExecuteBatch(specs);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].ok());
  EXPECT_FALSE(first[0]->trace().result_cache_hit);

  const auto second = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(second[0].ok());
  EXPECT_TRUE(second[0]->trace().result_cache_hit);
  ExpectSameMatches(*first[0], *second[0]);
}

TEST_F(ResultCacheEngineTest, WritesInvalidateThroughSnapshotVersion) {
  const std::vector<QuerySpec> specs = OneSpecBatch();
  ASSERT_TRUE(engine_.ExecuteBatch(specs)[0].ok());

  // Insert: the snapshot version moves, so the old entry stops being
  // addressable and the next batch recomputes against the new state.
  Rng rng(5);
  ASSERT_TRUE(engine_.Insert(ts::GenerateRandomWalk(128, 500.0, rng)).ok());
  const auto after_insert = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(after_insert[0].ok());
  EXPECT_FALSE(after_insert[0]->trace().result_cache_hit);

  // Remove: same story.
  ASSERT_TRUE(engine_.ExecuteBatch(specs)[0]->trace().result_cache_hit);
  ASSERT_TRUE(engine_.Remove(1).ok());
  const auto after_remove = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(after_remove[0].ok());
  EXPECT_FALSE(after_remove[0]->trace().result_cache_hit);
}

TEST_F(ResultCacheEngineTest, ReconfigurationInvalidatesThroughConfigEpoch) {
  const std::vector<QuerySpec> specs = OneSpecBatch();
  ASSERT_TRUE(engine_.ExecuteBatch(specs)[0].ok());
  ASSERT_TRUE(engine_.ExecuteBatch(specs)[0]->trace().result_cache_hit);

  engine_.SetSimulatedDiskLatency(1000);
  const auto after_latency = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(after_latency[0].ok());
  EXPECT_FALSE(after_latency[0]->trace().result_cache_hit);

  // Installing a fault hook and removing it each bump the epoch too (this
  // policy injects nothing, so both batches succeed).
  ASSERT_TRUE(engine_.ExecuteBatch(specs)[0]->trace().result_cache_hit);
  testing::FaultPolicy policy;
  engine_.SetReadFaultHook(&policy);
  const auto with_hook = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(with_hook[0].ok());
  EXPECT_FALSE(with_hook[0]->trace().result_cache_hit);
  engine_.SetReadFaultHook(nullptr);
  const auto after_hook = engine_.ExecuteBatch(specs);
  ASSERT_TRUE(after_hook[0].ok());
  EXPECT_FALSE(after_hook[0]->trace().result_cache_hit);
  engine_.SetSimulatedDiskLatency(0);
}

TEST_F(ResultCacheEngineTest, CacheOffNeverPopulatesOrServes) {
  const std::vector<QuerySpec> specs = OneSpecBatch();
  BatchOptions options;
  options.use_result_cache = false;
  ASSERT_TRUE(engine_.ExecuteBatch(specs, options)[0].ok());
  EXPECT_EQ(engine_.result_cache().size(), 0u);
  const auto again = engine_.ExecuteBatch(specs, options);
  ASSERT_TRUE(again[0].ok());
  EXPECT_FALSE(again[0]->trace().result_cache_hit);
}

TEST_F(ResultCacheEngineTest, InvalidSpecsAreNeverCached) {
  std::vector<QuerySpec> specs = OneSpecBatch();
  RangeQuerySpec bad = std::get<RangeQuerySpec>(specs[0]);
  bad.epsilon = std::nan("");
  specs[0] = bad;

  const std::size_t before = engine_.result_cache().size();
  const auto batch = engine_.ExecuteBatch(specs);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].ok());
  EXPECT_EQ(engine_.result_cache().size(), before);

  // Same for a NaN hidden in the query samples.
  RangeQuerySpec poisoned = std::get<RangeQuerySpec>(OneSpecBatch()[0]);
  poisoned.query[7] = std::nan("");
  const auto poisoned_batch =
      engine_.ExecuteBatch({QuerySpec(poisoned)});
  if (poisoned_batch[0].ok()) {
    // Even if the executor tolerates it, the result must not be cached.
    EXPECT_FALSE(poisoned_batch[0]->trace().result_cache_hit);
  }
  EXPECT_EQ(engine_.result_cache().size(), before);
}

}  // namespace
}  // namespace tsq::core
