// Figure 6 of the paper: time per range query (Query 1) as the number of
// transformations grows from 1 to 30 on the stock data set (1068 sequences
// of length 128; ours is the synthetic replacement described in DESIGN.md).
//
// The transformations are moving averages starting at 5 days: |T| = k uses
// windows 5 .. 4+k (the paper: "ranging from 5-day to 34-day"). rho = 0.96.
//
// Paper's result: sequential scan is flat; ST-index grows linearly with |T|;
// MT-index stays below both.
//
// --threads=N runs the parallel executor with N workers (0 = one per
// hardware thread). Counters are identical for every N; only time changes.

#include <cstdio>

#include "bench_util.h"
#include "exec/parallel.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"

int main(int argc, char** argv) {
  using namespace tsq;
  const std::size_t n = 128;
  std::vector<std::size_t> counts = {1, 2, 4, 8, 12, 16, 20, 25, 30};
  if (bench::FastMode()) counts = {1, 4, 8};
  const std::size_t threads = bench::ParseThreadsFlag(argc, argv);
  const std::string trace_path = bench::ParseTraceJsonFlag(argc, argv);
  std::string last_trace;

  std::printf("Figure 6: time per query vs. number of transformations\n");
  std::printf("(1068 stocks x 128 days, MA 5..4+k, rho = 0.96, "
              "%zu queries/point, %zu worker thread(s))\n\n",
              bench::QueryReps(), exec::EffectiveThreads(threads));

  ts::StockMarketConfig config;  // 1068 x 128 as in the paper
  core::SimilarityEngine engine(ts::GenerateStockMarket(config));
  bench::CalibrateSimulatedDisk(engine);

  bench::Table table({"|T|", "seq-scan(ms)", "ST-index(ms)", "MT-index(ms)",
                      "seq DA", "ST DA", "MT DA", "output"});
  for (const std::size_t k : counts) {
    core::RangeQuerySpec spec;
    spec.transforms = transform::MovingAverageRange(n, 5, 4 + k);
    spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, n);

    Rng rng_seq(k), rng_st(k), rng_mt(k);
    const auto seq = bench::MeasureRangeQuery(
        engine, spec, core::Algorithm::kSequentialScan, rng_seq, threads);
    const auto st = bench::MeasureRangeQuery(engine, spec,
                                             core::Algorithm::kStIndex,
                                             rng_st, threads);
    const auto mt = bench::MeasureRangeQuery(engine, spec,
                                             core::Algorithm::kMtIndex,
                                             rng_mt, threads);
    table.AddRow({std::to_string(k), bench::FormatDouble(seq.millis),
                  bench::FormatDouble(st.millis),
                  bench::FormatDouble(mt.millis),
                  bench::FormatDouble(seq.disk_accesses, 0),
                  bench::FormatDouble(st.disk_accesses, 0),
                  bench::FormatDouble(mt.disk_accesses, 0),
                  bench::FormatDouble(mt.output_size, 1)});
    last_trace = mt.last_trace_json;
  }
  table.Print();
  table.WriteCsv("fig6_scale_transforms");
  bench::WriteTraceJson(trace_path, last_trace);
  std::printf("\nExpected shape (paper Fig. 6): flat sequential scan, "
              "linear ST-index,\nMT-index below both across the sweep.\n");
  return 0;
}
