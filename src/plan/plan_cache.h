#ifndef TSQ_PLAN_PLAN_CACHE_H_
#define TSQ_PLAN_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace tsq::plan {

struct PlanDecision;

/// Cache key for one plan decision: two independent 64-bit digests over the
/// structured key material (transform-set signature, epsilon band, spec and
/// planner knobs, index epoch). Hash-based, so a collision is possible in
/// principle; its only consequence would be executing a suboptimal — never
/// incorrect — plan, since every cached decision is a valid plan for any
/// query of the same transform count.
struct PlanKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const {
    return static_cast<std::size_t>(key.lo ^
                                    (key.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental FNV-1a-style hasher feeding both digests of a PlanKey.
class PlanKeyBuilder {
 public:
  PlanKeyBuilder& Add(std::uint64_t value);
  PlanKeyBuilder& AddDouble(double value);  // bit pattern, so -0.0 != 0.0
  PlanKeyBuilder& AddString(std::string_view text);
  PlanKey key() const { return PlanKey{lo_, hi_}; }

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ull;
  std::uint64_t hi_ = 0x84222325cbf29ce4ull;
};

/// Bounded LRU map from PlanKey to an immutable PlanDecision. Not
/// internally synchronized — the Planner's mutex guards every call — but
/// the engine.planner.cache_{hits,misses} counters it bumps are
/// process-global atomics (obs::MetricsRegistry), so observers can read
/// them concurrently.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  /// Returns the cached decision (refreshing its LRU position) or nullptr.
  /// Counts engine.planner.cache_hits / cache_misses.
  std::shared_ptr<const PlanDecision> Lookup(const PlanKey& key);

  /// Inserts (or replaces) a decision, evicting the least recently used
  /// entry beyond capacity.
  void Insert(const PlanKey& key, std::shared_ptr<const PlanDecision> decision);

  /// Drops everything (the Planner calls this on epoch bumps; stale epochs
  /// could otherwise only age out of the LRU).
  void Clear();

  std::size_t size() const { return map_.size(); }

 private:
  using LruList =
      std::list<std::pair<PlanKey, std::shared_ptr<const PlanDecision>>>;

  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> map_;
};

}  // namespace tsq::plan

#endif  // TSQ_PLAN_PLAN_CACHE_H_
