#ifndef TSQ_BENCH_BENCH_UTIL_H_
#define TSQ_BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/query.h"

namespace tsq::bench {

/// True when the environment asks for a reduced-size smoke run
/// (TSQ_BENCH_FAST=1).
bool FastMode();

/// Number of random queries averaged per measurement point. The paper uses
/// 100; the default here is 100 (5 in fast mode), overridable with
/// TSQ_BENCH_REPS.
std::size_t QueryReps();

/// Fixed-width console table that doubles as a CSV writer.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  /// Renders to stdout with aligned columns.
  void Print() const;
  /// Writes "<name>.csv" next to the binary (best effort; ignored on error).
  void WriteCsv(const std::string& name) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string FormatDouble(double value, int precision = 2);

/// Averaged measurements of one (workload, algorithm) point: wall-clock time
/// and the paper's counters, averaged over QueryReps() random queries drawn
/// from the dataset.
struct QueryMeasurement {
  double millis = 0.0;
  double disk_accesses = 0.0;
  double index_accesses = 0.0;
  double candidates = 0.0;
  double comparisons = 0.0;
  double output_size = 0.0;
  /// Per-rectangle counters of the *last* query (for the cost function).
  std::vector<core::GroupRunStats> last_group_stats;
  /// ExplainJson document of the *last* query (--trace-json output).
  std::string last_trace_json;
  /// Eq. 20 cost averaged over all queries.
  double cost = 0.0;
};

/// Runs `spec` (with its query replaced by a random dataset member each
/// repetition) under `algorithm` with `num_threads` executor workers and
/// averages time and counters. The counters are identical for every thread
/// count; only the wall-clock changes.
QueryMeasurement MeasureRangeQuery(const core::SimilarityEngine& engine,
                                   core::RangeQuerySpec spec,
                                   core::Algorithm algorithm, Rng& rng,
                                   std::size_t num_threads = 1);

/// Same measurement under full ExecOptions — the way to put the planner
/// (Algorithm::kAuto, partitioning strategies, cost-constant overrides) on
/// the bench. Group-stats collection is forced on so `cost` is always the
/// measured Eq. 20 value.
QueryMeasurement MeasureRangeQuery(const core::SimilarityEngine& engine,
                                   core::RangeQuerySpec spec,
                                   core::ExecOptions options, Rng& rng);

/// Parses a `--threads=N` argument (0 = one worker per hardware thread).
/// Returns 1 when the flag is absent or malformed.
std::size_t ParseThreadsFlag(int argc, char** argv);

/// Parses a `--trace-json=<path>` argument: the file the bench writes the
/// ExplainJson document of its last measured query to. Empty when absent.
std::string ParseTraceJsonFlag(int argc, char** argv);

/// Writes `json` to `path` (no-op when either is empty); prints where the
/// trace went, or a warning when the file cannot be written.
void WriteTraceJson(const std::string& path, const std::string& json);

/// Calibrates the simulated per-page latency so that one full-sequence
/// comparison costs `cmp_to_da_ratio` of one page read — the paper's
/// measured hardware ratio is C_cmp = 0.4 * C_DA (Section 5.2). Measures the
/// comparison cost on this machine, sets the engine's disk latency
/// accordingly, and returns the chosen latency in nanoseconds.
std::uint64_t CalibrateSimulatedDisk(core::SimilarityEngine& engine,
                                     double cmp_to_da_ratio = 0.4);

}  // namespace tsq::bench

#endif  // TSQ_BENCH_BENCH_UTIL_H_
