// Kernel-layer benchmark: raw per-ISA throughput of each dispatched kernel
// (GB/s and speedup vs the scalar reference), plus the end-to-end effect on
// the Figure 5 workload's verification phase — the same range queries run
// once under forced-scalar and once under the best supported variant, with
// the match sets and QueryStats checked byte-identical (the kernel layer's
// determinism contract makes the ISA a pure speed knob).
//
// Writes BENCH_kernels.json next to the binary (override the path with
// --json=<path>). Exits non-zero if any cross-ISA result mismatch is seen.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/engine.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"
#include "ts/normal_form.h"

namespace {

using tsq::kernels::Isa;
using tsq::kernels::KernelTable;
using tsq::kernels::TableFor;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (tsq::kernels::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// One raw-kernel measurement: calls `body` repeatedly for ~`budget` seconds
// (after a warmup) and returns seconds per call.
template <typename Body>
double TimePerCall(double budget, Body&& body) {
  for (int i = 0; i < 100; ++i) body();
  std::size_t iters = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 200; ++i) body();
    iters += 200;
    elapsed = NowSeconds() - start;
  } while (elapsed < budget);
  return elapsed / static_cast<double>(iters);
}

struct KernelCase {
  const char* name;
  std::size_t bytes_per_element;  // input traffic per double element
  double (*run)(const KernelTable&, const double*, const double*,
                const double*, const double*, std::size_t);
};

// The early-abandoning kernels run at bound +inf: the full sum, never
// abandoned.
constexpr double kNoBound = std::numeric_limits<double>::infinity();

// Uniform adapter signature: (table, a, b, c, d, n) -> sink value.
const KernelCase kCases[] = {
    {"weighted_squared_distance_within", 24,
     [](const KernelTable& t, const double* a, const double* b,
        const double* c, const double*, std::size_t n) {
       // A group of one weight vector.
       const std::span<const double> w(c, n);
       tsq::kernels::EarlyAbandonResult r;
       t.weighted_squared_distance_within(a, b, &w, 1, n, kNoBound, &r);
       return r.value;
     }},
    {"transformed_to_plain_within", 32,
     [](const KernelTable& t, const double* a, const double* b,
        const double* c, const double* d, std::size_t n) {
       return t.transformed_to_plain_within(a, b, c, d, n, kNoBound).value;
     }},
    {"weighted_dot_sums", 24,
     [](const KernelTable& t, const double* a, const double* b,
        const double* c, const double*, std::size_t n) {
       return t.weighted_dot_sums(a, b, c, n).dot;
     }},
};

std::string ParseJsonFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "BENCH_kernels.json";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsq;
  const std::vector<Isa> isas = SupportedIsas();
  const double budget = bench::FastMode() ? 0.02 : 0.15;
  const std::string json_path = ParseJsonFlag(argc, argv);
  volatile double sink = 0.0;

  std::printf("Kernel suite: per-ISA throughput (best of %zu variants: %s)\n\n",
              isas.size(), kernels::IsaName(kernels::BestSupportedIsa()));

  std::ostringstream json;
  json << "{\"kernels\":[";
  bench::Table table({"kernel", "n", "isa", "GB/s", "speedup"});
  bool first_entry = true;

  for (const std::size_t n : {std::size_t{256}, std::size_t{4096}}) {
    Rng rng(n);
    std::vector<double> a(n), b(n), c(n), d(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-1.0, 1.0);
      b[i] = rng.Uniform(-1.0, 1.0);
      c[i] = rng.Uniform(0.0, 2.0);
      d[i] = rng.Uniform(-1.0, 1.0);
    }
    for (const KernelCase& kc : kCases) {
      double scalar_time = 0.0;
      for (const Isa isa : isas) {
        const KernelTable& t = TableFor(isa);
        const double per_call = TimePerCall(budget, [&] {
          sink = sink + kc.run(t, a.data(), b.data(), c.data(), d.data(), n);
        });
        if (isa == Isa::kScalar) scalar_time = per_call;
        const double gbps = static_cast<double>(n * kc.bytes_per_element) /
                            per_call / 1e9;
        const double speedup = scalar_time / per_call;
        table.AddRow({kc.name, std::to_string(n), kernels::IsaName(isa),
                      bench::FormatDouble(gbps), bench::FormatDouble(speedup)});
        if (!first_entry) json << ',';
        first_entry = false;
        json << "{\"kernel\":\"" << kc.name << "\",\"n\":" << n
             << ",\"isa\":\"" << kernels::IsaName(isa)
             << "\",\"gbps\":" << gbps << ",\"speedup_vs_scalar\":" << speedup
             << '}';
      }
    }
  }
  table.Print();
  table.WriteCsv("kernel_suite");

  // --- Figure 5 workload, verification phase, scalar vs best ISA ---
  const std::size_t seq_len = 128;
  ts::RandomWalkConfig config;
  config.num_series = bench::FastMode() ? 1000 : 4000;
  config.length = seq_len;
  config.seed = 5 + config.num_series;
  core::SimilarityEngine engine(ts::GenerateRandomWalks(config));

  core::RangeQuerySpec spec;
  spec.transforms = transform::MovingAverageRange(seq_len, 10, 25);
  spec.epsilon = ts::CorrelationToDistanceThreshold(0.96, seq_len);
  core::ExecOptions options;
  options.planner.algorithm = core::Algorithm::kMtIndex;

  const std::size_t reps = bench::FastMode() ? 5 : 40;
  const Isa best = kernels::BestSupportedIsa();
  bool identical = true;
  double verification_ms[2] = {0.0, 0.0};
  double total_ms[2] = {0.0, 0.0};
  std::vector<std::vector<core::Match>> scalar_matches;
  std::vector<core::QueryStats> scalar_stats;

  const Isa passes[2] = {Isa::kScalar, best};
  for (int pass = 0; pass < 2; ++pass) {
    kernels::ForceIsaForTesting(passes[pass]);
    Rng qrng(99);
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t query_id = static_cast<std::size_t>(qrng.UniformInt(
          0, static_cast<std::int64_t>(config.num_series) - 1));
      spec.query = ts::Denormalize(engine.dataset().normal(query_id));
      // Warm run: fault the working set into the buffer pool so the timed
      // run measures CPU phases, not first-touch page reads.
      if (r == 0) (void)engine.Execute(spec, options);
      auto result = engine.Execute(spec, options);
      TSQ_CHECK(result.ok()) << result.status().ToString();
      const obs::QueryTrace& trace = result->trace();
      verification_ms[pass] +=
          static_cast<double>(
              trace.phases[static_cast<std::size_t>(obs::Phase::kVerification)]
                  .nanos) *
          1e-6;
      total_ms[pass] += static_cast<double>(trace.total_nanos) * 1e-6;
      const core::RangeQueryResult* range = result->range();
      TSQ_CHECK(range != nullptr);
      if (pass == 0) {
        scalar_matches.push_back(range->matches);
        scalar_stats.push_back(range->stats);
      } else if (range->matches != scalar_matches[r] ||
                 range->stats != scalar_stats[r]) {
        identical = false;
      }
    }
  }
  kernels::ForceIsaForTesting(best);

  const double speedup = verification_ms[1] > 0.0
                             ? verification_ms[0] / verification_ms[1]
                             : 0.0;
  std::printf(
      "\nFig. 5 workload (%zu series, %zu queries, MT-index): verification "
      "%0.2f ms scalar vs %0.2f ms %s  (%.2fx), results %s\n",
      config.num_series, reps, verification_ms[0], verification_ms[1],
      kernels::IsaName(best), speedup,
      identical ? "byte-identical" : "MISMATCH");

  json << "],\"fig5_verification\":{\"num_series\":" << config.num_series
       << ",\"queries\":" << reps << ",\"best_isa\":\""
       << kernels::IsaName(best)
       << "\",\"scalar_verification_ms\":" << verification_ms[0]
       << ",\"simd_verification_ms\":" << verification_ms[1]
       << ",\"verification_speedup\":" << speedup
       << ",\"scalar_total_ms\":" << total_ms[0]
       << ",\"simd_total_ms\":" << total_ms[1]
       << ",\"results_identical\":" << (identical ? "true" : "false") << "}}";

  std::ofstream file(json_path);
  if (file) {
    file << json.str() << '\n';
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("warning: could not write %s\n", json_path.c_str());
  }
  (void)sink;
  return identical ? 0 : 1;
}
