// Batched-execution throughput: queries per second as the batch size grows
// on the Figure 5 workload (random walks of length 128, |T| = 16 moving
// averages 10..25, rho = 0.96).
//
// One fixed list of random query sequences is executed three ways — as
// single-query batches, batches of 8, and batches of 64 — so the speedup
// isolates what a batch shares: one snapshot pin and one planner
// consultation per batch, and one pass over the worker threads for every
// query's tasks. Each query still runs its own index traversal and record
// fetches, so the record pages are the same at every batch size. The match
// sets are verified identical across batch sizes before any number is
// reported.
//
// --threads=N sets the executor workers per batch (0 = one per hardware
// thread); --trace-json=<path> dumps the ExplainJson document of the last
// batch-64 query.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/explain.h"
#include "exec/parallel.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"

int main(int argc, char** argv) {
  using namespace tsq;
  const std::size_t n = 128;
  const std::size_t num_series = bench::FastMode() ? 500 : 2000;
  const std::size_t num_queries = 64;  // divisible by every batch size
  static constexpr std::size_t kBatchSizes[] = {1, 8, 64};
  const std::size_t threads = bench::ParseThreadsFlag(argc, argv);
  const std::string trace_path = bench::ParseTraceJsonFlag(argc, argv);

  ts::RandomWalkConfig config;
  config.num_series = num_series;
  config.length = n;
  config.seed = 505;
  core::SimilarityEngine engine(ts::GenerateRandomWalks(config));
  bench::CalibrateSimulatedDisk(engine);

  std::printf("Batched execution: queries/sec vs. batch size\n");
  std::printf("(%zu random walks, |T| = 16 moving averages 10..25, "
              "rho = 0.96, %zu queries, %zu worker thread(s))\n\n",
              num_series, num_queries, exec::EffectiveThreads(threads));

  // The fixed query list every batch size executes.
  std::vector<core::QuerySpec> all_specs;
  Rng rng(num_series);
  for (std::size_t q = 0; q < num_queries; ++q) {
    core::RangeQuerySpec spec;
    const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(engine.size()) - 1));
    spec.query = ts::Denormalize(engine.dataset().normal(pick));
    spec.transforms = transform::MovingAverageRange(n, 10, 25);
    spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, n);
    all_specs.push_back(std::move(spec));
  }

  // Warm the planner once so its calibration I/O is not on the clock.
  {
    const auto warmup =
        engine.ExecuteBatch({all_specs.begin(), all_specs.begin() + 1});
    if (warmup.empty() || !warmup[0].ok()) {
      std::fprintf(stderr, "warmup failed\n");
      return 1;
    }
  }

  bench::Table table({"batch", "total(ms)", "queries/s", "speedup",
                      "record pages", "output"});
  std::string last_trace;
  double base_qps = 0.0;
  bool match_sets_identical = true;
  std::vector<std::vector<core::Match>> reference;  // from batch size 1
  double batch1_qps = 0.0, batch64_qps = 0.0;
  double batch64_speedup = 0.0;

  for (const std::size_t batch_size : kBatchSizes) {
    core::BatchOptions options;
    options.exec.planner.algorithm = core::Algorithm::kMtIndex;
    options.exec.num_threads = threads;

    engine.ResetIoStats();
    std::vector<std::vector<core::Match>> matches(num_queries);
    std::uint64_t output = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t base = 0; base < num_queries; base += batch_size) {
      const std::vector<core::QuerySpec> slice(
          all_specs.begin() + static_cast<std::ptrdiff_t>(base),
          all_specs.begin() + static_cast<std::ptrdiff_t>(base + batch_size));
      const auto batch = engine.ExecuteBatch(slice, options);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!batch[i].ok()) {
          std::fprintf(stderr, "batch entry failed: %s\n",
                       batch[i].status().ToString().c_str());
          return 1;
        }
        matches[base + i] = batch[i]->range()->matches;
        output += batch[i]->stats().output_size;
        if (batch_size == 64 && base + i == num_queries - 1) {
          last_trace = core::ExplainJson(*batch[i]);
        }
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const double millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    const double qps = millis > 0.0
                           ? 1000.0 * static_cast<double>(num_queries) / millis
                           : 0.0;
    const std::uint64_t pages = engine.dataset().record_io().reads;

    if (batch_size == 1) {
      reference = matches;
      base_qps = qps;
      batch1_qps = qps;
    } else {
      for (std::size_t q = 0; q < num_queries; ++q) {
        if (matches[q] != reference[q]) {
          match_sets_identical = false;
          std::fprintf(stderr,
                       "DIVERGENCE: query %zu differs between batch=1 and "
                       "batch=%zu\n",
                       q, batch_size);
        }
      }
    }
    const double speedup = base_qps > 0.0 ? qps / base_qps : 0.0;
    if (batch_size == 64) {
      batch64_qps = qps;
      batch64_speedup = speedup;
    }
    table.AddRow({std::to_string(batch_size), bench::FormatDouble(millis),
                  bench::FormatDouble(qps, 1), bench::FormatDouble(speedup),
                  std::to_string(pages),
                  std::to_string(output / num_queries)});
  }

  table.Print();
  table.WriteCsv("batch_throughput");
  bench::WriteTraceJson(trace_path, last_trace);
  std::printf("\nMatch sets across batch sizes: %s\n",
              match_sets_identical ? "identical" : "DIVERGED");
  std::printf("batch-64 vs batch-1: %.2fx (%.1f vs %.1f queries/s)\n",
              batch64_speedup, batch64_qps, batch1_qps);
  std::printf("Expected shape: about flat with one worker thread, since "
              "every query does its own traversal and fetches; with more "
              "workers, larger batches keep them busier than one query's "
              "tasks can.\n");
  return match_sets_identical ? 0 : 1;
}
