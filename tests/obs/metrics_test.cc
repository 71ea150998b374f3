#include "obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tsq::obs {
namespace {

TEST(CounterTest, Increment) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("test.counter");
  Counter* b = registry.counter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment(5);
  EXPECT_EQ(b->value(), 5u);
}

TEST(MetricsRegistryTest, GlobalIsSingletonAndPopulatedByEngineUse) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
  // Counters created through Global() persist across call sites.
  Counter* c = a.counter("global.test.counter");
  c->Increment();
  EXPECT_EQ(b.counter("global.test.counter")->value(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.counter("contended.counter");
      for (int i = 0; i < 1000; ++i) c->Increment();
      seen[t] = c;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), 8000u);
}

}  // namespace
}  // namespace tsq::obs
