// Figure 5 of the paper: time per range query (Query 1) as the number of
// sequences grows from 500 to 12,000.
//
// Workload, as in the paper: synthetic random walks of length 128
// (x_t = x_{t-1} + U[-500, 500]), |T| = 16 moving averages (10..25-day),
// correlation threshold 0.96 translated to a Euclidean epsilon via Eq. 9,
// random query sequences drawn from the data set, times averaged.
//
// Paper's result: MT-index fastest at every size; sequential scan grows
// linearly; ST-index pays |T| traversals. (Absolute times differ from the
// 168 MHz UltraSPARC; the ordering and growth shapes are what reproduce.)
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
  std::vector<std::size_t> sizes = {500, 1000, 2000, 4000, 8000, 12000};
  if (bench::FastMode()) sizes = {500, 1000, 2000};
  const std::size_t threads = bench::ParseThreadsFlag(argc, argv);
  const std::string trace_path = bench::ParseTraceJsonFlag(argc, argv);
  std::string last_trace;

  std::printf("Figure 5: time per query vs. number of sequences\n");
  std::printf("(synthetic random walks, |T| = 16 moving averages 10..25, "
              "rho = 0.96, %zu queries/point, %zu worker thread(s))\n\n",
              bench::QueryReps(), exec::EffectiveThreads(threads));

  bench::Table table({"sequences", "seq-scan(ms)", "ST-index(ms)",
                      "MT-index(ms)", "seq DA", "ST DA", "MT DA", "output"});

  for (const std::size_t size : sizes) {
    ts::RandomWalkConfig config;
    config.num_series = size;
    config.length = n;
    config.seed = 5 + size;
    core::SimilarityEngine engine(ts::GenerateRandomWalks(config));
    bench::CalibrateSimulatedDisk(engine);

    core::RangeQuerySpec spec;
    spec.transforms = transform::MovingAverageRange(n, 10, 25);
    spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, n);

    Rng rng(size);
    const auto seq = bench::MeasureRangeQuery(
        engine, spec, core::Algorithm::kSequentialScan, rng, threads);
    Rng rng_st(size);
    const auto st =
        bench::MeasureRangeQuery(engine, spec, core::Algorithm::kStIndex,
                                 rng_st, threads);
    Rng rng_mt(size);
    const auto mt =
        bench::MeasureRangeQuery(engine, spec, core::Algorithm::kMtIndex,
                                 rng_mt, threads);

    table.AddRow({std::to_string(size), bench::FormatDouble(seq.millis),
                  bench::FormatDouble(st.millis),
                  bench::FormatDouble(mt.millis),
                  bench::FormatDouble(seq.disk_accesses, 0),
                  bench::FormatDouble(st.disk_accesses, 0),
                  bench::FormatDouble(mt.disk_accesses, 0),
                  bench::FormatDouble(mt.output_size, 1)});
    last_trace = mt.last_trace_json;
  }
  table.Print();
  table.WriteCsv("fig5_scale_sequences");
  bench::WriteTraceJson(trace_path, last_trace);
  std::printf("\nExpected shape (paper Fig. 5): MT-index below both "
              "competitors at every size,\nsequential scan linear in the "
              "number of sequences.\n");
  return 0;
}
