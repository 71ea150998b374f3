// Figure 7 of the paper: spatial-join running time (Query 2) as the number
// of transformations grows from 1 to 30.
//
// Query 2: "find every pair s1, s2 of stocks and every t in T such that
// rho(t(s1.close), t(s2.close)) >= 0.99", T = moving averages 5..4+k, on the
// 1068 x 128 stock data set.
//
// Paper's result: both indexed joins beat the nested-loop scan by a wide
// margin; MT-join beats ST-join until |T| reaches ~30 where they converge.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/explain.h"
#include "transform/builders.h"
#include "ts/generate.h"

int main(int argc, char** argv) {
  using namespace tsq;
  const std::size_t n = 128;
  std::vector<std::size_t> counts = {1, 5, 10, 15, 20, 25, 30};
  if (bench::FastMode()) counts = {1, 5, 10};
  const std::string trace_path = bench::ParseTraceJsonFlag(argc, argv);
  std::string last_trace;

  std::printf("Figure 7: join time vs. number of transformations\n");
  std::printf("(1068 stocks x 128 days, rho >= 0.99, MA 5..4+k)\n\n");

  ts::StockMarketConfig config;
  core::SimilarityEngine engine(ts::GenerateStockMarket(config));
  bench::CalibrateSimulatedDisk(engine);

  bench::Table table({"|T|", "seq-scan(s)", "ST-index(s)", "MT-index(s)",
                      "ST DA", "MT DA", "scan pairs", "ST pairs",
                      "MT pairs"});
  for (const std::size_t k : counts) {
    core::JoinQuerySpec spec;
    spec.mode = core::JoinMode::kCorrelation;
    spec.min_correlation = 0.99;
    spec.transforms = transform::MovingAverageRange(n, 5, 4 + k);

    double seconds[3] = {0, 0, 0};
    double disk[3] = {0, 0, 0};
    // Correlation mode filters with the Eq. 9 distance threshold, so an
    // indexed join may miss a pair the scan finds: each output is shown.
    double output[3] = {0, 0, 0};
    const core::Algorithm algorithms[3] = {core::Algorithm::kSequentialScan,
                                           core::Algorithm::kStIndex,
                                           core::Algorithm::kMtIndex};
    for (int a = 0; a < 3; ++a) {
      core::ExecOptions options;
      options.planner.algorithm = algorithms[a];
      Stopwatch watch;
      const auto result = engine.Execute(spec, options);
      seconds[a] = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::printf("join failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      disk[a] = static_cast<double>(result->stats().disk_accesses());
      output[a] = static_cast<double>(result->join()->matches.size());
      if (algorithms[a] == core::Algorithm::kMtIndex) {
        last_trace = core::ExplainJson(*result);
      }
    }
    table.AddRow({std::to_string(k), bench::FormatDouble(seconds[0], 3),
                  bench::FormatDouble(seconds[1], 3),
                  bench::FormatDouble(seconds[2], 3),
                  bench::FormatDouble(disk[1], 0),
                  bench::FormatDouble(disk[2], 0),
                  bench::FormatDouble(output[0], 0),
                  bench::FormatDouble(output[1], 0),
                  bench::FormatDouble(output[2], 0)});
  }
  table.Print();
  table.WriteCsv("fig7_join");
  bench::WriteTraceJson(trace_path, last_trace);
  std::printf("\nExpected shape (paper Fig. 7): indexed joins far below the "
              "all-pairs scan;\nMT-join cheaper than ST-join at small |T|, "
              "converging as |T| grows to 30.\n");
  return 0;
}
