// End-to-end and per-layer benchmark of the similarity engine.
//
//   tsq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scratch <dir>]
//
// One process, one client thread, closed loop: each operation is issued
// only after the previous one returned. With --trace 0 the run prints the
// end-to-end metrics; with --trace 1 it repeats the same operations with
// spans on and prints the per-layer metrics instead. The last line of
// standard output is always the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}};
// the lines before it carry the host facts and run details. README.md
// describes the workloads and metrics.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "kernels/kernels.h"

namespace tsq::perfbench {
namespace {

// Engine constructions per untraced run; setup_s is their median. A run
// builds at least kMinSetups engines and keeps building until they took
// kSetupBudgetS together (a 1068-stock engine builds in ~10 ms, so one
// construction alone would be mostly timer and allocator noise), up to
// kMaxSetups.
constexpr std::size_t kMinSetups = 7;
constexpr std::size_t kMaxSetups = 64;
constexpr double kSetupBudgetS = 1.0;
// Every engine runs with the simulated disk latency off; the host facts
// report the value.
constexpr std::uint64_t kDiskLatencyNs = 0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0.0 && args->trace >= 0 &&
         FindWorkload(args->workload) != nullptr;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Effective parallelism: the same CPU-bound spin on one thread, then on two
// threads at once. 2.0 means two real cores; 1.0 means they time-share one.
double EffectiveParallelism() {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 30'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  std::uint64_t t0 = MonotonicNanos();
  spin();
  const std::uint64_t one = MonotonicNanos() - t0;
  t0 = MonotonicNanos();
  std::thread other(spin);
  spin();
  other.join();
  const std::uint64_t two = MonotonicNanos() - t0;
  return two > 0 ? 2.0 * static_cast<double>(one) / static_cast<double>(two)
                 : 0.0;
}

std::string HostFacts() {
  const char* isa_override = std::getenv("TSQ_KERNEL_ISA");
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string out = "{\"host\":{";
  out += "\"kernel_isa\":" +
         JsonString(kernels::IsaName(kernels::ActiveIsa()));
  out += ",\"tsq_kernel_isa_env\":" +
         JsonString(isa_override != nullptr ? isa_override : "");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"effective_parallelism\":" + JsonNumber(EffectiveParallelism());
  out += ",\"simulated_disk_latency_ns\":" + std::to_string(kDiskLatencyNs);
  out += ",\"ndebug\":" + std::string(ndebug ? "true" : "false");
  out += ",\"cpu\":" + JsonString(CpuModel());
  out += ",\"compiler\":" + JsonString(__VERSION__);
  return out + "}}";
}

std::unique_ptr<core::SimilarityEngine> BuildEngine(
    const WorkloadConfig& workload, std::vector<ts::Series> series,
    bool* ok) {
  auto engine = std::make_unique<core::SimilarityEngine>(std::move(series));
  engine->SetSimulatedDiskLatency(kDiskLatencyNs);
  *ok = WarmUp(workload, *engine) && *ok;
  return engine;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> EndToEnd(const WorkloadConfig& workload,
                             const LoopOutcome& loop, double setup_s,
                             double rss_mib) {
  // Every time is host-normalised (README.md, "Host normalisation"); the
  // details line has the raw ones.
  std::vector<double> latency;
  double latency_sum = 0.0;
  double busy_s = 0.0;
  std::size_t queries = 0;
  for (const OpRecord& op : loop.ops) {
    if (op.kind == workload.primary) {
      latency.push_back(op.normalized_micros());
      latency_sum += latency.back();
    }
    busy_s += op.normalized_micros() / 1e6;
    queries += op.queries;
  }
  // The mean, not the median, is gated: the host alternates between fast
  // and slow stretches that normalisation only partly cancels, so latencies
  // are bimodal and their median jumps between the modes from run to run,
  // while the mean moves only with the share of time spent in each.
  return {
      {"op_mean_us", Ratio(latency_sum, static_cast<double>(latency.size())),
       "us"},
      {"op_tail_us", Quantile(latency, workload.tail_quantile), "us"},
      {"queries_per_s", Ratio(static_cast<double>(queries), busy_s), "1/s"},
      {"setup_s", setup_s, "s"},
      {"rss_mib", rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayer(double untraced_wall_ns,
                             const LoopOutcome& traced,
                             const std::map<std::string, double>& replays) {
  double queries = 0, candidates = 0, comparisons = 0, output = 0;
  double record_pages = 0, nodes = 0, leaves = 0, deduped = 0;
  double kernel_calls = 0, kernel_elements = 0, abandons = 0;
  double plan_hits = 0, plan_misses = 0;
  std::array<double, obs::kPhaseCount> phase_ns{};
  for (const OpRecord& op : traced.ops) {
    plan_hits += static_cast<double>(op.plan_cache_hits);
    plan_misses += static_cast<double>(op.plan_cache_misses);
    if (!IsRead(op.kind)) continue;
    queries += static_cast<double>(op.queries);
    candidates += static_cast<double>(op.stats.candidates);
    comparisons += static_cast<double>(op.stats.comparisons);
    output += static_cast<double>(op.stats.output_size);
    record_pages += static_cast<double>(op.stats.record_pages_read);
    nodes += static_cast<double>(op.stats.index_nodes_accessed);
    leaves += static_cast<double>(op.stats.index_leaves_accessed);
    deduped += static_cast<double>(op.deduped_fetches);
    kernel_calls += static_cast<double>(op.kernel_calls);
    kernel_elements += static_cast<double>(op.kernel_elements);
    abandons += static_cast<double>(op.early_abandons);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      phase_ns[p] += static_cast<double>(op.phase_ns[p]);
    }
  }
  const auto per_query_us = [&](obs::Phase phase) {
    return Ratio(phase_ns[static_cast<std::size_t>(phase)], queries) / 1e3;
  };
  std::vector<Metric> out = {
      {"core.plan_us", per_query_us(obs::Phase::kPlan), "us"},
      {"core.index_traversal_us", per_query_us(obs::Phase::kIndexTraversal),
       "us"},
      {"core.candidate_fetch_us", per_query_us(obs::Phase::kCandidateFetch),
       "us"},
      {"core.verification_us", per_query_us(obs::Phase::kVerification), "us"},
      {"core.merge_us", per_query_us(obs::Phase::kMerge), "us"},
      {"core.candidates", Ratio(candidates, queries), "count"},
      {"core.comparisons", Ratio(comparisons, queries), "count"},
      {"core.match_yield", Ratio(output, comparisons), "ratio"},
      {"core.batch_dedupe_ratio", Ratio(deduped, candidates), "ratio"},
      {"storage.record_pages_per_query", Ratio(record_pages, queries),
       "count"},
      {"rstar.nodes_per_query", Ratio(nodes, queries), "count"},
      {"rstar.leaves_per_query", Ratio(leaves, queries), "count"},
      {"rstar.traversal_ns_per_node",
       Ratio(phase_ns[static_cast<std::size_t>(obs::Phase::kIndexTraversal)],
             nodes),
       "ns"},
      {"kernels.calls_per_query", Ratio(kernel_calls, queries), "count"},
      {"kernels.elements_per_query", Ratio(kernel_elements, queries),
       "count"},
      {"kernels.early_abandon_ratio", Ratio(abandons, kernel_calls), "ratio"},
      {"plan.cache_hit_ratio", Ratio(plan_hits, plan_hits + plan_misses),
       "ratio"},
      {"obs.trace_overhead_frac",
       Ratio(static_cast<double>(traced.wall_ns), untraced_wall_ns) - 1.0,
       "frac"},
  };
  static const std::vector<std::pair<std::string, std::string>> kReplayUnits = {
      {"core.fetch_spectrum_ns", "ns"},   {"storage.record_get_ns", "ns"},
      {"storage.page_read_ns", "ns"},     {"storage.page_write_ns", "ns"},
      {"storage.page_writes_per_insert", "count"},
      {"rstar.node_read_ns", "ns"},       {"rstar.insert_us", "us"},
      {"rstar.delete_us", "us"},          {"kernels.comparison_ns", "ns"},
      {"plan.plan_ns", "ns"},             {"plan.replan_ns", "ns"},
  };
  for (const auto& [name, unit] : kReplayUnits) {
    const auto it = replays.find(name);
    out.push_back({name, it != replays.end() ? it->second : 0.0, unit});
  }
  return out;
}

// Informational line: the raw per-kind latencies under their
// workload-specific names (range_p50_us, insert_p50_us, batch_p50_ms, ...),
// tail sample counts, the failure fraction, the raw primary mean and set-up
// time with the median host probe, and the fingerprint.
std::string Details(const WorkloadConfig& workload, const LoopOutcome& loop,
                    std::size_t attempted, std::size_t failed,
                    const std::string& fingerprint,
                    const std::string& check_report, double setup_raw_s) {
  std::map<OpKind, std::vector<double>> by_kind;
  for (const OpRecord& op : loop.ops) by_kind[op.kind].push_back(op.micros());
  const std::vector<double>& primary = by_kind[workload.primary];
  const double tail = Quantile(primary, workload.tail_quantile);
  std::size_t beyond = 0;
  for (const double v : primary) beyond += v > tail ? 1 : 0;
  std::string out = "{\"details\":{\"workload\":" + JsonString(workload.name);
  out += ",\"ops\":" + std::to_string(loop.ops.size());
  out += ",\"primary_op\":" + JsonString(OpKindName(workload.primary));
  out += ",\"tail_percentile\":" + JsonNumber(100.0 * workload.tail_quantile);
  out += ",\"samples_beyond_tail\":" + std::to_string(beyond);
  for (const auto& [kind, values] : by_kind) {
    // Batches and joins take tens of milliseconds; the rest microseconds.
    const bool ms = kind == OpKind::kBatch || kind == OpKind::kJoin;
    const std::string name = OpKindName(kind);
    const std::string unit = ms ? "_ms" : "_us";
    const double scale = ms ? 1e-3 : 1.0;
    out += ",\"" + name + "_count\":" + std::to_string(values.size());
    out += ",\"" + name + "_p50" + unit +
           "\":" + JsonNumber(scale * Quantile(values, 0.5));
    if (kind == workload.primary) {
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%g", 100.0 * workload.tail_quantile);
      out += ",\"" + name + "_p" + pct + unit +
             "\":" + JsonNumber(scale * tail);
    }
  }
  out += ",\"failed_frac\":" +
         JsonNumber(attempted > 0 ? static_cast<double>(failed) /
                                        static_cast<double>(attempted)
                                  : 0.0);
  double primary_sum = 0.0;
  for (const double v : primary) primary_sum += v;
  out += ",\"raw_op_mean_us\":" +
         JsonNumber(Ratio(primary_sum, static_cast<double>(primary.size())));
  if (setup_raw_s > 0.0) out += ",\"raw_setup_s\":" + JsonNumber(setup_raw_s);
  out += ",\"probe_p50_us\":" + JsonNumber(Quantile(loop.probe_us, 0.5));
  out += ",\"probes\":" + std::to_string(loop.probe_us.size());
  out += ",\"checked_samples\":" + std::to_string(loop.samples.size());
  out += ",\"fingerprint\":" + JsonString(fingerprint);
  out += ",\"check_report\":" + JsonString(check_report);
  return out + "}}";
}

bool WriteSpans(const std::string& path, const SpanLog& spans) {
  std::ofstream file(path, std::ios::trunc);
  for (const Span& s : spans.spans()) {
    file << "{\"name\":" << JsonString(s.name) << ",\"start_ns\":"
         << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
         << s.parent << ",\"op\":" << s.op_id << "}\n";
  }
  return static_cast<bool>(file);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr,
                 "usage: tsq_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n"
                 "workloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadConfig& workload = *FindWorkload(args.workload);
  std::printf("%s\n", HostFacts().c_str());

  const std::vector<ts::Series> series = MakeSeries(workload, args.seed);
  bool ok = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string report;
  std::string fingerprint;
  std::vector<Metric> metrics;
  const auto count_ops = [&](const LoopOutcome& loop) {
    for (const OpRecord& op : loop.ops) {
      attempted += IsRead(op.kind) ? op.queries + op.failures : 1;
      failed += op.failures;
    }
  };

  if (args.trace == 0) {
    // Each construction is normalised by the host probes on either side.
    std::vector<double> setup;
    std::vector<double> setup_raw;
    std::unique_ptr<core::SimilarityEngine> engine;
    double setup_total = 0.0;
    double probe_before = HostProbeMicros();
    while (setup.size() < kMinSetups ||
           (setup_total < kSetupBudgetS && setup.size() < kMaxSetups)) {
      engine.reset();
      std::vector<ts::Series> copy = series;
      const std::uint64_t t0 = MonotonicNanos();
      engine = BuildEngine(workload, std::move(copy), &ok);
      setup_raw.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e9);
      const double probe_after = HostProbeMicros();
      setup.push_back(setup_raw.back() * kReferenceProbeUs /
                      ((probe_before + probe_after) / 2));
      setup_total += setup_raw.back();
      probe_before = probe_after;
    }
    SpanLog spans(false);
    const LoopOutcome loop =
        RunLoop(workload, *engine, args.seed, args.seconds, 0, &spans);
    const double rss = PeakRssMib();
    count_ops(loop);
    failed += CheckOutputs(*engine, loop, &report);
    fingerprint = Fingerprint(workload, loop.ops);
    metrics = EndToEnd(workload, loop, Quantile(setup, 0.5), rss);
    std::printf("%s\n", Details(workload, loop, attempted, failed, fingerprint,
                                report, Quantile(setup_raw, 0.5))
                            .c_str());
  } else {
    // The same operations untraced, traced, then untraced again, each on a
    // fresh engine. Comparing the traced pass with the mean of the two
    // untraced ones cancels what the process's first pass pays for cold
    // memory, which would otherwise read as negative trace overhead.
    SpanLog off(false);
    const LoopOutcome before = RunLoop(
        workload, *BuildEngine(workload, series, &ok), args.seed,
        args.seconds / 2, 0, &off);
    auto engine = BuildEngine(workload, series, &ok);
    SpanLog spans(true);
    const LoopOutcome traced = RunLoop(workload, *engine, args.seed, 0,
                                       before.ops.size(), &spans);
    const LoopOutcome after =
        RunLoop(workload, *BuildEngine(workload, series, &ok), args.seed, 0,
                before.ops.size(), &off);
    count_ops(traced);
    failed += CheckOutputs(*engine, traced, &report);
    fingerprint = Fingerprint(workload, traced.ops);
    if (fingerprint != Fingerprint(workload, before.ops) ||
        fingerprint != Fingerprint(workload, after.ops)) {
      ok = false;
      report += "traced and untraced fingerprints differ\n";
    }
    std::size_t replay_failures = 0;
    const std::map<std::string, double> replays = ReplayLayers(
        workload, *engine, args.seed, args.scratch, &spans, &replay_failures);
    if (replay_failures > 0) {
      ok = false;
      report += std::to_string(replay_failures) + " replayed calls failed\n";
    }
    const double untraced_wall_ns = (static_cast<double>(before.wall_ns) +
                                     static_cast<double>(after.wall_ns)) /
                                    2;
    metrics = PerLayer(untraced_wall_ns, traced, replays);
    const std::string span_path = args.scratch + "/spans-" + workload.name +
                                  "-" + std::to_string(args.seed) + ".jsonl";
    if (!WriteSpans(span_path, spans)) {
      ok = false;
      report += "cannot write " + span_path + "\n";
    }
    std::printf("%s\n", Details(workload, traced, attempted, failed,
                                fingerprint, report, 0.0)
                            .c_str());
  }

  std::string result = "{\"correct\":";
  result += ok && failed == 0 ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(attempted);
  result += ",\"failed\":" + std::to_string(failed);
  result += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ',';
    result += JsonString(metrics[i].name) + ":{\"value\":" +
              JsonNumber(metrics[i].value) +
              ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace tsq::perfbench

int main(int argc, char** argv) { return tsq::perfbench::Main(argc, argv); }
