#ifndef TSQ_PERFBENCH_BENCH_H_
#define TSQ_PERFBENCH_BENCH_H_

// Shared declarations of the end-to-end benchmark driver: the workloads
// (workloads.cc), the per-layer replays (layers.cc) and the span log both
// record into. main.cc wires them to the command line.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/trace.h"

namespace tsq::perfbench {

/// SplitMix64 finaliser: derives independent stream seeds from the one
/// --seed argument (workload data, query draws, check samples, replays).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream);

/// Quantile by linear interpolation between closest ranks; `values` need not
/// be sorted. 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// One span of the traced run: an operation, a query phase inside it, or a
/// replayed layer call. Times are nanoseconds on MonotonicNanos().
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the log, -1 for a root span
  std::uint64_t op_id = 0;
};

/// In-memory span store; written out once, when the run ends. A disabled
/// log drops every span, so the untraced run pays one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Appends a span and returns its index (-1 when disabled).
  std::int64_t Add(std::string name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent,
                   std::uint64_t op_id);
  /// Op id for the next root span.
  std::uint64_t NextOpId() { return next_op_id_++; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t next_op_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one run of the host probe: a sort of 8 Ki fixed pseudo-random
/// keys already in cache. It is the benchmark's own code, so no library
/// change moves it, and its time tracks how fast the shared host runs the
/// benchmark's thread at that moment (README.md, "Host normalisation").
double HostProbeMicros();

/// Probe time the normalised metrics are scaled to: a time t measured while
/// the probe took p reads as t * kReferenceProbeUs / p.
inline constexpr double kReferenceProbeUs = 500.0;

enum class OpKind { kRange, kKnn, kBatch, kJoin, kInsert, kRemove };
const char* OpKindName(OpKind kind);
inline bool IsRead(OpKind kind) {
  return kind != OpKind::kInsert && kind != OpKind::kRemove;
}

/// Everything the benchmark records about one timed operation of the
/// closed loop. Counts are deltas of the process-wide metrics around the
/// call, or sums of the returned QueryStats / QueryTrace over the
/// operation's queries (64 for a batch).
struct OpRecord {
  OpKind kind = OpKind::kRange;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t queries = 0;  // read queries completed by this operation
  core::QueryStats stats;
  std::array<std::uint64_t, obs::kPhaseCount> phase_ns{};
  std::uint64_t kernel_calls = 0;
  std::uint64_t kernel_elements = 0;
  std::uint64_t early_abandons = 0;
  std::uint64_t page_writes = 0;
  std::uint64_t deduped_fetches = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::string plan;  // chosen plan label(s), "" for writes
  std::size_t failures = 0;  // errored queries / writes of this operation
  /// Index into LoopOutcome::probe_us of the last probe before the
  /// operation, and the mean of that probe and the next one.
  std::size_t probe = 0;
  double host_us = 0.0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  double normalized_micros() const {
    return micros() * kReferenceProbeUs / host_us;
  }
};

/// The four workloads; see README.md for why each exists.
struct WorkloadConfig {
  std::string name;
  /// The operation op_mean_us and op_tail_us time: a range Execute (fig5
  /// range and mixed), one ExecuteBatch call of 64, or one join.
  OpKind primary = OpKind::kRange;
  /// Operations whose exact counts form the run's fingerprint; the loop
  /// never stops before completing them.
  std::size_t fingerprint_ops = 0;
  /// Tail percentile reported as op_tail_us: the highest with at least ten
  /// samples beyond it at the run length BENCHMARK.json fixes.
  double tail_quantile = 0.99;
};

/// nullptr for an unknown name.
const WorkloadConfig* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// ExecOptions every operation uses: kAuto with the paper's cost constants
/// (c_da = 1, c_cmp = 0.4), one thread.
core::ExecOptions BenchExecOptions();

/// Generated inputs of one workload instance: the series the engine is
/// built from. Deterministic in (workload, seed).
std::vector<ts::Series> MakeSeries(const WorkloadConfig& workload,
                                   std::uint64_t seed);

/// The workload's representative spec — the one warm-up plans, and the one
/// the planner and kernel replays use. `query` is a dataset member id.
core::QuerySpec RepresentativeSpec(const WorkloadConfig& workload,
                                   const core::SimilarityEngine& engine,
                                   std::size_t query);

/// Plans every spec kind the workload issues (the lazy planner snapshot),
/// outside any timed loop. The set-up metric includes it.
bool WarmUp(const WorkloadConfig& workload, core::SimilarityEngine& engine);

/// A result kept for the off-clock output checks. It names the query's
/// dataset member rather than holding its spec, and keeps the full result
/// only when the oracle checks it; otherwise a digest of its exact bytes.
struct CheckSample {
  OpKind kind = OpKind::kRange;
  std::size_t query = 0;
  std::vector<core::Match> range;
  std::vector<core::KnnMatch> knn;
  std::vector<core::JoinMatch> join;
  std::uint64_t digest = 0;
  /// Liveness at the write version the query pinned (mixed-rw only; empty
  /// where nothing is written).
  std::vector<bool> live;
  bool check_solo = false;    // byte-compare with a solo Execute
  bool check_oracle = false;  // compare with testing::Oracle
};

/// Outcome of one closed loop over an engine.
struct LoopOutcome {
  std::vector<OpRecord> ops;
  std::uint64_t wall_ns = 0;
  std::vector<CheckSample> samples;
  /// Host probe times, taken between operations off their clock and
  /// outside wall_ns.
  std::vector<double> probe_us;
};

/// Runs the workload's closed loop: one client issuing the next operation
/// only after the previous one returned. Stops after `seconds` once at
/// least `workload.fingerprint_ops` operations completed, or after exactly
/// `max_ops` operations when max_ops > 0 (the traced replay of an untraced run).
LoopOutcome RunLoop(const WorkloadConfig& workload,
                    core::SimilarityEngine& engine, std::uint64_t seed,
                    double seconds, std::size_t max_ops, SpanLog* spans);

/// Checks the sampled results against testing::Oracle (range, k-NN, join;
/// at the pinned write version in mixed-rw) and every sampled batch entry
/// byte-for-byte against a solo Execute. Returns the number of operations
/// with a wrong result; `report` receives one line per mismatch.
std::size_t CheckOutputs(const core::SimilarityEngine& engine,
                         const LoopOutcome& loop, std::string* report);

/// FNV-1a over the exact counts and plan labels of the first
/// `workload.fingerprint_ops` operations, as 16 hex digits.
std::string Fingerprint(const WorkloadConfig& workload,
                        const std::vector<OpRecord>& ops);

/// Per-layer replays on the workload's engine (traced run only): times
/// calls into storage, rstar, core, kernels and plan functions. Leaves the
/// engine's live set as it found it. `scratch_dir` receives a temporary
/// copy of the record file. Keys are the per_layer metric names; failed
/// layer calls are added to `*failures`.
std::map<std::string, double> ReplayLayers(const WorkloadConfig& workload,
                                           core::SimilarityEngine& engine,
                                           std::uint64_t seed,
                                           const std::string& scratch_dir,
                                           SpanLog* spans,
                                           std::size_t* failures);

}  // namespace tsq::perfbench

#endif  // TSQ_PERFBENCH_BENCH_H_
