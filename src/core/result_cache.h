#ifndef TSQ_CORE_RESULT_CACHE_H_
#define TSQ_CORE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/query_spec.h"
#include "plan/plan_cache.h"

namespace tsq::core {

struct QueryResult;

/// The digest a query result is cached under, plus whether the query may be
/// cached at all. The digest covers the *exact* canonical spec (every query
/// sample, the exact epsilon — not the planner's band — every transformation
/// multiplier, partition, target and knobs), the full ExecOptions, the
/// pinned snapshot version and the engine's configuration epoch, so two
/// queries share a key only when sequential execution would have produced
/// byte-identical results. `cacheable` is false when any spec field is
/// non-finite (NaN/Inf specs are rejected or degenerate and must never be
/// cached) — the caller bypasses the cache entirely.
struct ResultCacheKey {
  bool cacheable = false;
  plan::PlanKey key;
};

/// Builds the cache key for one (spec, options) pair at one engine state.
/// `snapshot_version` is the write version the batch pinned; `config_epoch`
/// counts engine reconfigurations (simulated latency, fault hooks) — both
/// enter the digest, which is the cache's whole invalidation story: any
/// Insert/Remove bumps the version, any reconfiguration bumps the epoch, and
/// stale entries simply stop being addressable and age out of the LRU.
ResultCacheKey ComputeResultCacheKey(const QuerySpec& spec,
                                     const ExecOptions& options,
                                     std::uint64_t snapshot_version,
                                     std::uint64_t config_epoch);

/// Bounded LRU map from ResultCacheKey digests to immutable QueryResults,
/// shared by every ExecuteBatch of one engine. Internally synchronized
/// (batches run concurrently). Entries can be *pinned* while a batch is
/// computing their value: a pinned entry holds its slot (so concurrent
/// eviction pressure cannot drop an in-flight computation) but serves
/// lookups as misses until the value is published. Errors are never
/// published — an unpinned valueless entry is erased.
///
/// Metrics: engine.result_cache.{hits,misses,evictions}.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity = 128);

  /// The cached result for `key` (refreshing its LRU position), or nullptr.
  /// A pinned, not-yet-published entry is a miss. Counts hits/misses.
  std::shared_ptr<const QueryResult> Lookup(const plan::PlanKey& key);

  /// Reserves `key` as in-flight: inserts a valueless pinned entry (or adds
  /// a pin to an existing entry). Returns true when this call created the
  /// reservation — the caller then owns publishing via Insert() — and false
  /// when the key already existed (someone else is computing it, or a value
  /// is already published).
  bool Pin(const plan::PlanKey& key);

  /// Publishes the value for `key` (typically a pinned reservation), moves
  /// it to the MRU position and evicts unpinned LRU entries beyond capacity.
  /// Counts evictions. Pinned entries are never evicted.
  void Insert(const plan::PlanKey& key,
              std::shared_ptr<const QueryResult> value);

  /// Releases one pin on `key`. An entry left valueless and unpinned (the
  /// computation failed) is erased so the error is never served.
  void Unpin(const plan::PlanKey& key);

  /// Entries currently held (published values plus in-flight pins).
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const QueryResult> value;  // null while in flight
    std::size_t pins = 0;
  };
  using LruList = std::list<std::pair<plan::PlanKey, Entry>>;

  void EvictLocked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<plan::PlanKey, LruList::iterator, plan::PlanKeyHash> map_;
};

}  // namespace tsq::core

#endif  // TSQ_CORE_RESULT_CACHE_H_
