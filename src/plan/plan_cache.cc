#include "plan/plan_cache.h"

#include <cstring>

#include "obs/metrics.h"

namespace tsq::plan {

namespace {

// Planner-cache instruments, resolved once (registry pointers are stable for
// the life of the process).
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;

  static const CacheMetrics& Get() {
    static const CacheMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return CacheMetrics{registry.counter("engine.planner.cache_hits"),
                          registry.counter("engine.planner.cache_misses")};
    }();
    return metrics;
  }
};

constexpr std::uint64_t kPrimeLo = 0x100000001b3ull;
constexpr std::uint64_t kPrimeHi = 0x00000100000001b3ull ^ 0x9e3779b9ull;

}  // namespace

PlanKeyBuilder& PlanKeyBuilder::Add(std::uint64_t value) {
  // Mix all eight bytes at once per stream; the second stream sees the value
  // tweaked so the digests stay independent.
  lo_ = (lo_ ^ value) * kPrimeLo;
  hi_ = (hi_ ^ (value * 0x9e3779b97f4a7c15ull + 1)) * kPrimeHi;
  return *this;
}

PlanKeyBuilder& PlanKeyBuilder::AddDouble(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return Add(bits);
}

PlanKeyBuilder& PlanKeyBuilder::AddString(std::string_view text) {
  Add(text.size());
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (const char c : text) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++filled == 8) {
      Add(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) Add(word);
  return *this;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const PlanDecision> PlanCache::Lookup(const PlanKey& key) {
  const CacheMetrics& metrics = CacheMetrics::Get();
  const auto it = map_.find(key);
  if (it == map_.end()) {
    metrics.misses->Increment();
    return nullptr;
  }
  metrics.hits->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanCache::Insert(const PlanKey& key,
                       std::shared_ptr<const PlanDecision> decision) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(decision);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(decision));
  map_[key] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void PlanCache::Clear() {
  map_.clear();
  lru_.clear();
}

}  // namespace tsq::plan
