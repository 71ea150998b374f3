#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/cost_model.h"
#include "core/explain.h"
#include "transform/builders.h"
#include "ts/normal_form.h"

namespace tsq::bench {

bool FastMode() {
  const char* value = std::getenv("TSQ_BENCH_FAST");
  return value != nullptr && value[0] == '1';
}

std::size_t QueryReps() {
  if (const char* value = std::getenv("TSQ_BENCH_REPS")) {
    const long reps = std::strtol(value, nullptr, 10);
    if (reps > 0) return static_cast<std::size_t>(reps);
  }
  return FastMode() ? 5 : 100;
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  TSQ_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    rule.append(widths[c] + 2, c + 1 == columns_.size() ? '-' : '-');
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

void Table::WriteCsv(const std::string& name) const {
  std::ofstream out(name + ".csv", std::ios::trunc);
  if (!out) return;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out << ',';
    out << columns_[c];
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << row[c];
    }
    out << '\n';
  }
}

std::size_t ParseThreadsFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      char* end = nullptr;
      const long threads = std::strtol(arg.c_str() + 10, &end, 10);
      if (end != nullptr && *end == '\0' && threads >= 0) {
        return static_cast<std::size_t>(threads);
      }
      std::printf("ignoring malformed %s\n", arg.c_str());
    }
  }
  return 1;
}

std::string ParseTraceJsonFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-json=", 0) == 0) {
      std::string path = arg.substr(13);
      if (!path.empty()) return path;
      std::printf("ignoring empty %s\n", arg.c_str());
    }
  }
  return "";
}

void WriteTraceJson(const std::string& path, const std::string& json) {
  if (path.empty() || json.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << json << '\n';
  out.flush();
  if (!out) {
    std::printf("warning: could not write trace to %s\n", path.c_str());
    return;
  }
  std::printf("trace written to %s\n", path.c_str());
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

std::uint64_t CalibrateSimulatedDisk(core::SimilarityEngine& engine,
                                     double cmp_to_da_ratio) {
  TSQ_CHECK(cmp_to_da_ratio > 0.0);
  TSQ_CHECK_GE(engine.size(), std::size_t{2});
  const auto t = transform::MovingAverageTransform(engine.length(), 10);
  const Result<std::vector<dft::Complex>> x = engine.dataset().FetchSpectrum(0);
  const Result<std::vector<dft::Complex>> y = engine.dataset().FetchSpectrum(1);
  TSQ_CHECK(x.ok() && y.ok()) << "cannot fetch the probe records";
  const std::size_t reps = 200000;
  Stopwatch watch;
  double sink = 0.0;
  for (std::size_t i = 0; i < reps; ++i) {
    sink += t.TransformedSquaredDistance(*x, *y);
  }
  const double cmp_nanos =
      watch.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
  // Keep the compiler from dropping the loop.
  if (sink < 0.0) std::printf("%f\n", sink);
  const std::uint64_t latency =
      static_cast<std::uint64_t>(cmp_nanos / cmp_to_da_ratio);
  engine.SetSimulatedDiskLatency(latency);
  std::printf("calibrated: comparison ~%.0f ns -> page read ~%llu ns "
              "(C_cmp = %.1f * C_DA)\n\n",
              cmp_nanos, static_cast<unsigned long long>(latency),
              cmp_to_da_ratio);
  return latency;
}

QueryMeasurement MeasureRangeQuery(const core::SimilarityEngine& engine,
                                   core::RangeQuerySpec spec,
                                   core::Algorithm algorithm, Rng& rng,
                                   std::size_t num_threads) {
  core::ExecOptions options;
  options.planner.algorithm = algorithm;
  options.num_threads = num_threads;
  return MeasureRangeQuery(engine, std::move(spec), options, rng);
}

QueryMeasurement MeasureRangeQuery(const core::SimilarityEngine& engine,
                                   core::RangeQuerySpec spec,
                                   core::ExecOptions options, Rng& rng) {
  const std::size_t reps = QueryReps();
  QueryMeasurement m;
  const double leaf_capacity =
      core::TreeCostEstimator::Create(engine.index())->leaf_capacity();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::size_t query_id = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(engine.size()) - 1));
    spec.query = ts::Denormalize(engine.dataset().normal(query_id));
    Stopwatch watch;
    auto result = engine.Execute(spec, options);
    const double elapsed = watch.ElapsedMillis();
    TSQ_CHECK(result.ok()) << result.status().ToString();
    const core::QueryStats& stats = result->stats();
    m.millis += elapsed;
    m.disk_accesses += static_cast<double>(stats.disk_accesses());
    m.index_accesses += static_cast<double>(stats.index_nodes_accessed);
    m.candidates += static_cast<double>(stats.candidates);
    m.comparisons += static_cast<double>(stats.comparisons);
    m.output_size += static_cast<double>(stats.output_size);
    m.cost += core::CostEq20(result->group_stats, leaf_capacity);
    m.last_trace_json = core::ExplainJson(*result);
    m.last_group_stats = std::move(result->group_stats);
  }
  const double d = static_cast<double>(reps);
  m.millis /= d;
  m.disk_accesses /= d;
  m.index_accesses /= d;
  m.candidates /= d;
  m.comparisons /= d;
  m.output_size /= d;
  m.cost /= d;
  return m;
}

}  // namespace tsq::bench
