#include "core/result_cache.h"

#include <cmath>

#include "core/engine.h"
#include "obs/metrics.h"

namespace tsq::core {

namespace {

struct ResultCacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;

  static const ResultCacheMetrics& Get() {
    static const ResultCacheMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return ResultCacheMetrics{
          registry.counter("engine.result_cache.hits"),
          registry.counter("engine.result_cache.misses"),
          registry.counter("engine.result_cache.evictions")};
    }();
    return metrics;
  }
};

// Digest helpers. Every double goes in by bit pattern (so -0.0 != 0.0 and
// the digest is exact), but a non-finite value anywhere in the spec marks
// the key uncacheable: NaN thresholds are rejected by validation and NaN
// query samples make degenerate results — neither may ever be served from
// the cache.
class SpecDigest {
 public:
  explicit SpecDigest(plan::PlanKeyBuilder* key) : key_(key) {}

  bool finite() const { return finite_; }

  void Add(std::uint64_t value) { key_->Add(value); }

  void AddDouble(double value) {
    if (!std::isfinite(value)) finite_ = false;
    key_->AddDouble(value);
  }

  void AddSeries(const ts::Series& series) {
    Add(series.size());
    for (const double v : series) AddDouble(v);
  }

  void AddTransform(const transform::SpectralTransform& t) {
    key_->AddString(t.label());
    Add(t.length());
    for (std::size_t f = 0; f < t.length(); ++f) {
      const dft::Complex m = t.multiplier(f);
      AddDouble(m.real());
      AddDouble(m.imag());
    }
  }

  void AddTransforms(const std::vector<transform::SpectralTransform>& ts) {
    Add(ts.size());
    for (const transform::SpectralTransform& t : ts) AddTransform(t);
  }

  void AddPartition(const transform::Partition& partition) {
    Add(partition.size());
    for (const std::vector<std::size_t>& group : partition) {
      Add(group.size());
      for (const std::size_t t : group) Add(t);
    }
  }

  void AddQueryTransform(
      const std::optional<transform::SpectralTransform>& qt) {
    Add(qt.has_value() ? 1 : 0);
    if (qt.has_value()) AddTransform(*qt);
  }

 private:
  plan::PlanKeyBuilder* key_;
  bool finite_ = true;
};

}  // namespace

ResultCacheKey ComputeResultCacheKey(const QuerySpec& spec,
                                     const ExecOptions& options,
                                     std::uint64_t snapshot_version,
                                     std::uint64_t config_epoch) {
  plan::PlanKeyBuilder key;
  SpecDigest digest(&key);

  if (const auto* range = std::get_if<RangeQuerySpec>(&spec)) {
    digest.Add(0);
    digest.AddSeries(range->query);
    digest.AddDouble(range->epsilon);
    digest.AddTransforms(range->transforms);
    digest.AddPartition(range->partition);
    digest.Add(range->use_ordering ? 1 : 0);
    digest.Add(static_cast<std::uint64_t>(range->target));
    digest.AddQueryTransform(range->query_transform);
  } else if (const auto* knn = std::get_if<KnnQuerySpec>(&spec)) {
    digest.Add(1);
    digest.AddSeries(knn->query);
    digest.Add(knn->k);
    digest.AddTransforms(knn->transforms);
    digest.AddPartition(knn->partition);
    digest.Add(static_cast<std::uint64_t>(knn->target));
    digest.AddQueryTransform(knn->query_transform);
  } else {
    const auto& join = std::get<JoinQuerySpec>(spec);
    digest.Add(2);
    digest.Add(static_cast<std::uint64_t>(join.mode));
    digest.AddDouble(join.min_correlation);
    digest.AddDouble(join.epsilon);
    digest.AddDouble(join.slack);
    digest.AddTransforms(join.transforms);
    digest.AddPartition(join.partition);
  }

  // Execution knobs: everything that changes the bytes of the result —
  // num_threads included, because it lands verbatim in the trace.
  digest.Add(static_cast<std::uint64_t>(options.planner.algorithm));
  digest.Add(options.planner.cost_constants_override.has_value() ? 1 : 0);
  if (options.planner.cost_constants_override.has_value()) {
    digest.AddDouble(options.planner.cost_constants_override->c_da);
    digest.AddDouble(options.planner.cost_constants_override->c_cmp);
  }
  digest.Add(options.num_threads);

  // The engine state the result was computed against.
  digest.Add(snapshot_version);
  digest.Add(config_epoch);

  return ResultCacheKey{digest.finite(), key.key()};
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const QueryResult> ResultCache::Lookup(
    const plan::PlanKey& key) {
  const ResultCacheMetrics& metrics = ResultCacheMetrics::Get();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end() || it->second->second.value == nullptr) {
    metrics.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  metrics.hits->Increment();
  return it->second->second.value;
}

bool ResultCache::Pin(const plan::PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) return false;
  lru_.emplace_front(key, Entry{nullptr, 1});
  map_.emplace(key, lru_.begin());
  EvictLocked();
  return true;
}

void ResultCache::Insert(const plan::PlanKey& key,
                         std::shared_ptr<const QueryResult> value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second.value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(key, Entry{std::move(value), 0});
    map_.emplace(key, lru_.begin());
  }
  EvictLocked();
}

void ResultCache::Unpin(const plan::PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  Entry& entry = it->second->second;
  if (entry.pins > 0) --entry.pins;
  if (entry.pins == 0 && entry.value == nullptr) {
    lru_.erase(it->second);
    map_.erase(it);
  }
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
}

void ResultCache::EvictLocked() {
  const ResultCacheMetrics& metrics = ResultCacheMetrics::Get();
  auto it = lru_.end();
  while (map_.size() > capacity_ && it != lru_.begin()) {
    --it;
    if (it->second.pins > 0) continue;  // in flight: holds its slot
    map_.erase(it->first);
    it = lru_.erase(it);
    metrics.evictions->Increment();
  }
}

}  // namespace tsq::core
