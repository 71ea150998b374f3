#ifndef TSQ_OBS_METRICS_H_
#define TSQ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tsq::obs {

/// Monotonically increasing event count. All methods are lock-free and safe
/// from any thread; hot paths (kernel calls) pay one relaxed fetch_add.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Process-wide registry of named counters. Components acquire their
/// counters once (typically in a function-local static) and then update
/// them lock-free; the registry mutex is only taken by the get-or-create
/// lookup. Returned pointers are stable for the life of the process —
/// counters are never removed.
///
/// Names are dotted paths. The engine registers six, each read as a
/// before/after delta around an operation (perfbench, tests):
///
///   engine.kernels.{calls,elements,early_abandons}   dispatched kernel work
///   engine.planner.cache_{hits,misses}                plan-cache lookups
///   storage.page_file.writes                          successful page writes
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

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace tsq::obs

#endif  // TSQ_OBS_METRICS_H_
