// Micro-benchmarks (google-benchmark) for the building blocks: FFT
// throughput, R*-tree operations, transformation-MBR application, and the
// frequency-domain distance kernel that dominates post-processing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/dataset.h"
#include "core/feature.h"
#include "core/polar_bounds.h"
#include "dft/fft.h"
#include "dft/spectrum.h"
#include "kernels/kernels.h"
#include "rstar/rstar_tree.h"
#include "storage/page_file.h"
#include "transform/builders.h"
#include "transform/transform_mbr.h"
#include "ts/distance.h"
#include "ts/generate.h"

namespace {

using tsq::Rng;

std::vector<double> RandomSignal(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  return x;
}

void BM_FftForward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  const auto x = RandomSignal(n, rng);
  tsq::dft::FftPlan plan(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.Forward(std::span<const double>(x)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FftForward)->Arg(128)->Arg(129)->Arg(1024)->Arg(4096);

void BM_TransformedDistance(benchmark::State& state) {
  const std::size_t n = 128;
  Rng rng(1);
  tsq::dft::FftPlan plan(n);
  const auto x = plan.Forward(std::span<const double>(RandomSignal(n, rng)));
  const auto y = plan.Forward(std::span<const double>(RandomSignal(n, rng)));
  const auto t = tsq::transform::MovingAverageTransform(n, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.TransformedSquaredDistance(x, y));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransformedDistance);

// Raw per-ISA kernel throughput. The first arg is the kernels::Isa value
// (scalar, avx2); an unsupported variant skips. The standalone kernel_suite
// binary runs the full sweep and writes BENCH_kernels.json.
void BM_KernelWeightedSquaredDistance(benchmark::State& state) {
  const auto isa = static_cast<tsq::kernels::Isa>(state.range(0));
  if (!tsq::kernels::IsaSupported(isa)) {
    state.SkipWithError("ISA not supported on this machine");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(n);
  const auto x = RandomSignal(n, rng);
  const auto y = RandomSignal(n, rng);
  const std::vector<double> w(n, 1.0);
  const std::span<const double> weights(w);
  const auto& table = tsq::kernels::TableFor(isa);
  // At bound +inf the kernel never abandons: the full sum, for a group of
  // one weight vector.
  const double bound = std::numeric_limits<double>::infinity();
  tsq::kernels::EarlyAbandonResult r;
  for (auto _ : state) {
    table.weighted_squared_distance_within(x.data(), y.data(), &weights, 1, n,
                                           bound, &r);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 24);
  state.SetLabel(tsq::kernels::IsaName(isa));
}
BENCHMARK(BM_KernelWeightedSquaredDistance)
    ->ArgsProduct({{static_cast<int>(tsq::kernels::Isa::kScalar),
                    static_cast<int>(tsq::kernels::Isa::kAvx2)},
                   {128, 4096}});

void BM_RStarInsert(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<tsq::rstar::Point> points;
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back({rng.Uniform(-100.0, 100.0), rng.Uniform(-100.0, 100.0),
                      rng.Uniform(-100.0, 100.0),
                      rng.Uniform(-100.0, 100.0)});
  }
  for (auto _ : state) {
    tsq::storage::PageFile file;
    tsq::rstar::RStarTree tree(&file, 4);
    for (std::size_t i = 0; i < count; ++i) {
      benchmark::DoNotOptimize(
          tree.Insert(tsq::rstar::Rect::FromPoint(points[i]), i).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_RStarInsert)->Arg(1000)->Arg(5000);

void BM_RStarWindowQuery(benchmark::State& state) {
  Rng rng(8);
  tsq::storage::PageFile file;
  tsq::rstar::RStarTree tree(&file, 4);
  for (std::size_t i = 0; i < 10000; ++i) {
    tsq::rstar::Point p = {rng.Uniform(-100.0, 100.0),
                           rng.Uniform(-100.0, 100.0),
                           rng.Uniform(-100.0, 100.0),
                           rng.Uniform(-100.0, 100.0)};
    (void)tree.Insert(tsq::rstar::Rect::FromPoint(p), i);
  }
  const tsq::rstar::Rect window({-10.0, -10.0, -10.0, -10.0},
                                {10.0, 10.0, 10.0, 10.0});
  for (auto _ : state) {
    std::vector<std::uint64_t> results;
    benchmark::DoNotOptimize(tree.WindowQuery(window, &results).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RStarWindowQuery);

void BM_MbrApply(benchmark::State& state) {
  tsq::transform::FeatureLayout layout;
  std::vector<tsq::transform::FeatureTransform> fts;
  for (const auto& t : tsq::transform::MovingAverageRange(128, 5, 34)) {
    fts.push_back(t.ToFeatureTransform(layout));
  }
  const tsq::transform::TransformMbr mbr(fts, layout);
  Rng rng(9);
  std::vector<double> lo(layout.dimensions()), hi(layout.dimensions());
  for (std::size_t d = 0; d < layout.dimensions(); ++d) {
    lo[d] = rng.Uniform(-1.0, 1.0);
    hi[d] = lo[d] + rng.Uniform(0.0, 1.0);
  }
  const tsq::rstar::Rect rect(lo, hi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbr.Apply(rect));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MbrApply);

void BM_PolarBoxMin(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsq::core::PolarBoxMinSquaredDistance(
        0.5, 1.5, -0.3, 0.2, 2.0, 3.0, 1.0, 1.4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolarBoxMin);

// Fig5's shape: 8 000 random walks of length 128, moving averages 10..25 in
// one rectangle, the default layout, kBoth, the rho = 0.96 threshold. Like
// the index filter's survivors, the candidates are the walks nearest one
// more walk (the query) in the indexed coefficients: fig5's 1 542 per query.
struct Fig5Shape {
  static constexpr std::size_t kLength = 128;
  static constexpr std::size_t kWalks = 8000;
  static constexpr std::size_t kCandidates = 1542;
  tsq::transform::FeatureLayout layout;
  std::unique_ptr<tsq::core::Dataset> dataset;
  std::vector<tsq::transform::SpectralTransform> transforms;
  std::vector<std::size_t> group;  // every transformation, in order
  tsq::core::PreparedQuery query;
  std::vector<tsq::dft::Complex> query_coefficients;
  std::vector<std::size_t> candidates;  // nearest first
  double epsilon = 0.0;
};

const Fig5Shape& Fig5() {
  static const Fig5Shape* const shape = [] {
    auto* s = new Fig5Shape;
    tsq::ts::RandomWalkConfig config;
    config.num_series = Fig5Shape::kWalks + 1;
    config.length = Fig5Shape::kLength;
    config.seed = 5;
    std::vector<tsq::ts::Series> walks = tsq::ts::GenerateRandomWalks(config);
    const tsq::ts::Series query = walks.back();
    walks.pop_back();
    s->dataset =
        std::make_unique<tsq::core::Dataset>(std::move(walks), s->layout);
    s->transforms = tsq::transform::MovingAverageRange(Fig5Shape::kLength, 10, 25);
    s->group.resize(s->transforms.size());
    for (std::size_t t = 0; t < s->group.size(); ++t) s->group[t] = t;
    s->query = tsq::core::PrepareQuery(*s->dataset, query, std::nullopt);
    s->query_coefficients =
        tsq::core::IndexedCoefficients(s->query.spectrum, s->layout);
    std::vector<std::pair<double, std::size_t>> nearest;
    for (std::size_t i = 0; i < Fig5Shape::kWalks; ++i) {
      double d2 = 0.0;
      for (std::size_t c = 0; c < s->query_coefficients.size(); ++c) {
        d2 += std::norm(s->dataset->coefficients(i)[c] -
                        s->query_coefficients[c]);
      }
      nearest.emplace_back(d2, i);
    }
    std::sort(nearest.begin(), nearest.end());
    nearest.resize(Fig5Shape::kCandidates);
    for (const auto& [d2, id] : nearest) s->candidates.push_back(id);
    s->epsilon =
        tsq::ts::CorrelationToDistanceThreshold(0.96, Fig5Shape::kLength);
    return s;
  }();
  return *shape;
}

// The feature-level bound's verdict per candidate, in fig5's shape.
void BM_PolarBoundPrunes(benchmark::State& state) {
  const Fig5Shape& fig5 = Fig5();
  const tsq::core::PolarBound bound(fig5.layout, fig5.transforms, fig5.group,
                                    tsq::core::TransformTarget::kBoth,
                                    fig5.query_coefficients);
  const double eps2 = fig5.epsilon * fig5.epsilon;
  std::size_t pruned = 0;
  for (auto _ : state) {
    pruned = 0;
    for (const std::size_t id : fig5.candidates) {
      pruned += bound.Prunes(fig5.dataset->coefficients(id), eps2);
    }
    benchmark::DoNotOptimize(pruned);
  }
  state.SetItemsProcessed(state.iterations() * Fig5Shape::kCandidates);
  state.counters["pruned"] = static_cast<double>(pruned);
}
BENCHMARK(BM_PolarBoundPrunes);

// Range verification per candidate, in fig5's shape: the bound's survivors
// among the candidates above (fig5's ≈ 178 per query), their spectra fetched
// once, each evaluated against all 16 moving averages at the rho = 0.96
// bound. Arg 0 makes one group call per candidate (the verify path); arg 1
// makes 16 single calls, one per transformation.
void BM_VerifyGroup(benchmark::State& state) {
  const bool singles = state.range(0) != 0;
  const Fig5Shape& fig5 = Fig5();
  const tsq::core::PolarBound bound(fig5.layout, fig5.transforms, fig5.group,
                                    tsq::core::TransformTarget::kBoth,
                                    fig5.query_coefficients);
  const double eps2 = fig5.epsilon * fig5.epsilon;
  std::vector<std::vector<tsq::dft::Complex>> spectra;
  for (const std::size_t id : fig5.candidates) {
    if (bound.Prunes(fig5.dataset->coefficients(id), eps2)) continue;
    spectra.push_back(*fig5.dataset->FetchSpectrum(id));
  }
  std::vector<std::span<const double>> weights;
  for (const tsq::transform::SpectralTransform& t : fig5.transforms) {
    weights.push_back(t.component_squared_magnitudes());
  }
  std::vector<tsq::kernels::EarlyAbandonResult> out(weights.size());
  const std::span<const double> query = tsq::dft::AsDoubles(fig5.query.spectrum);
  std::size_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    for (const std::vector<tsq::dft::Complex>& x : spectra) {
      if (singles) {
        for (const tsq::transform::SpectralTransform& t : fig5.transforms) {
          matches += t.TransformedSquaredDistance(x, fig5.query.spectrum,
                                                  eps2) < eps2;
        }
      } else {
        tsq::kernels::WeightedSquaredDistancesWithin(
            tsq::dft::AsDoubles(x), query, weights, eps2, out);
        for (const tsq::kernels::EarlyAbandonResult& r : out) {
          matches += r.value < eps2;
        }
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  const double candidates = static_cast<double>(spectra.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spectra.size()));
  state.counters["candidates"] = candidates;
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["per_candidate"] = benchmark::Counter(
      candidates, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
  state.SetLabel(singles ? "16 single calls" : "one group call");
}
BENCHMARK(BM_VerifyGroup)->Arg(0)->Arg(1);

void BM_StockGeneration(benchmark::State& state) {
  tsq::ts::StockMarketConfig config;
  config.num_series = 1068;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsq::ts::GenerateStockMarket(config));
  }
  state.SetItemsProcessed(state.iterations() * 1068);
}
BENCHMARK(BM_StockGeneration);

}  // namespace

BENCHMARK_MAIN();
