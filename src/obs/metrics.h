#ifndef TSQ_OBS_METRICS_H_
#define TSQ_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tsq::obs {

/// Monotonically increasing event count. All methods are lock-free and safe
/// from any thread; hot paths (page reads) pay one relaxed fetch_add.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, live workers).
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two-bucket histogram of non-negative values (durations in
/// nanoseconds, queue depths): bucket b counts observations in
/// [2^b - 1, 2^(b+1) - 1), i.e. bucket(v) = bit_width(v). Count and sum are
/// exact; the distribution is log2-resolution, which is plenty for "where
/// did the time go" questions.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Observe(std::uint64_t value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Mean of all observations (0 when empty).
  double mean() const;
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Process-wide registry of named instruments. Components acquire their
/// instruments once (typically in a constructor) and then update them
/// lock-free; the registry mutex is only taken by the get-or-create lookups
/// and the renderers. Returned pointers are stable for the life of the
/// process — instruments are never removed, Reset() only zeroes them.
///
/// Names are dotted paths ("storage.page_file.reads"); one name denotes one
/// instrument of one kind (asking for an existing name with a different kind
/// is a programming error and aborts). The convention used by the engine:
///
///   engine.queries / engine.query_errors    queries executed / failed
///   engine.query_nanos                      per-query wall time (histogram)
///   exec.pool.workers_started               worker threads ever spawned
///   exec.pool.tasks_run                     tasks executed by pool workers
///   exec.pool.queue_depth                   submitted-not-yet-started tasks
///   exec.pool.queue_depth_on_submit         depth seen by Submit (histogram)
///   storage.page_file.{reads,writes,allocations}   successful physical I/Os
class MetricsRegistry {
 public:
  /// The process-wide registry (never destroyed, safe during static
  /// teardown).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the pointer stays valid forever.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// One "name kind value" line per instrument, sorted by name.
  std::string RenderText() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names sorted.
  std::string RenderJson() const;

  /// Zeroes every instrument (between benchmark epochs / tests). Pointers
  /// handed out earlier remain valid.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& FindOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace tsq::obs

#endif  // TSQ_OBS_METRICS_H_
