// The four workloads of the benchmark: their generated inputs, the closed
// loop that times them, the off-clock output checks and the exact-count
// fingerprint. README.md explains why each workload exists.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <variant>

#include "bench.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/join_query.h"
#include "core/range_query.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "testing/oracle.h"
#include "transform/builders.h"
#include "ts/distance.h"
#include "ts/generate.h"
#include "ts/normal_form.h"

namespace tsq::perfbench {

namespace {

constexpr std::size_t kLength = 128;
constexpr std::size_t kWalks = 8000;
constexpr double kWalkStep = 500.0;
constexpr std::size_t kStocks = 1068;
constexpr std::size_t kBatchSize = 64;
constexpr std::size_t kKnnK = 10;
constexpr double kRangeCorrelation = 0.96;
constexpr double kJoinCorrelation = 0.99;
// Relative tolerance on distances and correlations in the oracle checks;
// membership is compared exactly.
constexpr double kTolerance = 1e-6;
// One query in this many is checked against the oracle.
constexpr std::uint64_t kSampleEvery = 32;
// The loop runs the host probe before its first operation, then before the
// first operation this long after the previous probe, and once at the end.
constexpr std::uint64_t kProbeEveryNs = 50'000'000;

// Independent random streams derived from --seed.
enum Stream : std::uint64_t {
  kDataStream = 1,
  kQueryStream = 2,
  kSampleStream = 3,
  // Fixed, not derived from --seed: every run probes with the same keys.
  kProbeStream = 4,
};

const std::vector<WorkloadConfig>& Workloads() {
  // Tail percentiles leave at least ten samples beyond them in a 10 s run
  // on a host where a range query takes ~11 ms: ~850 range queries, ~40
  // batches, ~750 range queries among the mixed ops, and p85 of the ~70
  // or more joins a run completes while a join takes at most ~140 ms.
  static const std::vector<WorkloadConfig> workloads = {
      {"fig5-range", OpKind::kRange, 64, 0.98},
      {"fig5-batch64", OpKind::kBatch, 4, 0.75},
      {"fig7-join", OpKind::kJoin, 4, 0.85},
      {"mixed-rw", OpKind::kRange, 128, 0.98},
  };
  return workloads;
}

// |T| = 16 moving averages 10..25 (Fig. 5, batch and mixed workloads).
const std::vector<transform::SpectralTransform>& RangeTransforms() {
  static const auto* transforms = new std::vector<transform::SpectralTransform>(
      transform::MovingAverageRange(kLength, 10, 25));
  return *transforms;
}

// |T| = 10 moving averages 5..14 (Fig. 7 join).
const std::vector<transform::SpectralTransform>& JoinTransforms() {
  static const auto* transforms = new std::vector<transform::SpectralTransform>(
      transform::MovingAverageRange(kLength, 5, 14));
  return *transforms;
}

ts::Series QuerySeries(const core::SimilarityEngine& engine, std::size_t id) {
  return ts::Denormalize(engine.dataset().normal(id));
}

core::RangeQuerySpec RangeSpec(ts::Series query) {
  core::RangeQuerySpec spec;
  spec.query = std::move(query);
  spec.transforms = RangeTransforms();
  spec.epsilon = ts::CorrelationToDistanceThreshold(kRangeCorrelation, kLength);
  return spec;
}

core::KnnQuerySpec KnnSpec(ts::Series query) {
  core::KnnQuerySpec spec;
  spec.query = std::move(query);
  spec.k = kKnnK;
  spec.transforms = RangeTransforms();
  return spec;
}

core::JoinQuerySpec JoinSpec() {
  core::JoinQuerySpec spec;
  spec.mode = core::JoinMode::kCorrelation;
  spec.min_correlation = kJoinCorrelation;
  spec.transforms = JoinTransforms();
  return spec;
}

std::size_t RandomLiveId(const core::Dataset& dataset, Rng& rng) {
  for (;;) {
    const auto id = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(dataset.size()) - 1));
    if (!dataset.removed(id)) return id;
  }
}

bool Sampled(std::uint64_t seed, std::size_t query_index) {
  return Mix(seed ^ kSampleStream, query_index) % kSampleEvery == 0;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kTolerance * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

// The process-wide counters the loop reads around every operation.
struct Counters {
  obs::Counter* kernel_calls;
  obs::Counter* kernel_elements;
  obs::Counter* early_abandons;
  obs::Counter* page_writes;
  obs::Counter* deduped_fetches;
  obs::Counter* plan_cache_hits;
  obs::Counter* plan_cache_misses;

  static Counters Get() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return {registry.counter("engine.kernels.calls"),
            registry.counter("engine.kernels.elements"),
            registry.counter("engine.kernels.early_abandons"),
            registry.counter("storage.page_file.writes"),
            registry.counter("engine.batch.deduped_fetches"),
            registry.counter("engine.planner.cache_hits"),
            registry.counter("engine.planner.cache_misses")};
  }

  std::array<std::uint64_t, 7> Read() const {
    return {kernel_calls->value(),    kernel_elements->value(),
            early_abandons->value(),  page_writes->value(),
            deduped_fetches->value(), plan_cache_hits->value(),
            plan_cache_misses->value()};
  }
};

void AddDeltas(const std::array<std::uint64_t, 7>& before,
               const std::array<std::uint64_t, 7>& after, OpRecord* op) {
  op->kernel_calls = after[0] - before[0];
  op->kernel_elements = after[1] - before[1];
  op->early_abandons = after[2] - before[2];
  op->page_writes = after[3] - before[3];
  op->deduped_fetches = after[4] - before[4];
  op->plan_cache_hits = after[5] - before[5];
  op->plan_cache_misses = after[6] - before[6];
}

// Folds one query result into the operation's record.
void AddResult(const core::QueryResult& result, OpRecord* op) {
  op->stats += result.stats();
  const obs::QueryTrace& trace = result.trace();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    op->phase_ns[p] += trace.phases[p].nanos;
  }
  const obs::PlanCandidateTrace* chosen = trace.planner.chosen_candidate();
  if (!op->plan.empty()) op->plan += ';';
  op->plan += chosen != nullptr ? chosen->label : trace.algorithm;
  ++op->queries;
}

// Root span per operation, one child per query phase laid end to end from
// the operation's start (the trace gives phase durations, not offsets).
void RecordSpans(const OpRecord& op, SpanLog* spans) {
  if (!spans->enabled()) return;
  const std::uint64_t op_id = spans->NextOpId();
  const std::int64_t root = spans->Add(std::string("op.") + OpKindName(op.kind),
                                       op.start_ns, op.end_ns, -1, op_id);
  std::uint64_t at = op.start_ns;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    if (op.phase_ns[p] == 0) continue;
    spans->Add(std::string("core.") +
                   obs::PhaseName(static_cast<obs::Phase>(p)),
               at, at + op.phase_ns[p], root, op_id);
    at += op.phase_ns[p];
  }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Digest of a result's exact bytes (Match and JoinMatch have no padding).
template <typename T>
std::uint64_t Digest(const std::vector<T>& matches) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Fnv1a(kFnvOffset, matches.data(), matches.size() * sizeof(T));
}

}  // namespace

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double HostProbeMicros() {
  // 64 KiB of keys: larger probes, or a walk through memory, also measure
  // contention in the shared caches, which moves them without moving the
  // workloads, so they track the workloads worse.
  static const std::vector<std::uint64_t> keys = [] {
    std::vector<std::uint64_t> v(std::size_t{1} << 13);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = Mix(kProbeStream, i);
    return v;
  }();
  static volatile std::uint64_t sink = 0;
  std::vector<std::uint64_t> work = keys;
  const std::uint64_t start = MonotonicNanos();
  std::sort(work.begin(), work.end());
  const std::uint64_t end = MonotonicNanos();
  sink = work[work.size() / 2];
  return static_cast<double>(end - start) / 1e3;
}

std::int64_t SpanLog::Add(std::string name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t parent,
                          std::uint64_t op_id) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start_ns, end_ns, parent, op_id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRange: return "range";
    case OpKind::kKnn: return "knn";
    case OpKind::kBatch: return "batch";
    case OpKind::kJoin: return "join";
    case OpKind::kInsert: return "insert";
    case OpKind::kRemove: return "remove";
  }
  return "?";
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadConfig& w : Workloads()) names.push_back(w.name);
  return names;
}

core::ExecOptions BenchExecOptions() {
  core::ExecOptions options;
  options.num_threads = 1;
  options.planner.algorithm = core::Algorithm::kAuto;
  options.planner.cost_constants_override =
      core::CostConstants{.c_da = 1.0, .c_cmp = 0.4};
  return options;
}

std::vector<ts::Series> MakeSeries(const WorkloadConfig& workload,
                                   std::uint64_t seed) {
  if (workload.name == "fig7-join") {
    // One fixed market, as Fig. 7 joins one stock set. On seeded markets
    // the planner picks two MT rectangles instead of one for about one seed
    // in six, which doubles the join and would make its median bimodal
    // across seeds. The seed still drives the layer replays.
    ts::StockMarketConfig config;
    config.num_series = kStocks;
    config.length = kLength;
    return ts::GenerateStockMarket(config);
  }
  ts::RandomWalkConfig config;
  config.num_series = kWalks;
  config.length = kLength;
  config.step = kWalkStep;
  config.seed = Mix(seed, kDataStream);
  return ts::GenerateRandomWalks(config);
}

core::QuerySpec RepresentativeSpec(const WorkloadConfig& workload,
                                   const core::SimilarityEngine& engine,
                                   std::size_t query) {
  if (workload.name == "fig7-join") return JoinSpec();
  return RangeSpec(QuerySeries(engine, query));
}

bool WarmUp(const WorkloadConfig& workload, core::SimilarityEngine& engine) {
  const core::PlannerOptions options = BenchExecOptions().planner;
  if (workload.name == "fig7-join") {
    return engine.planner().Plan(JoinSpec(), options).ok();
  }
  bool ok = engine.planner().Plan(RangeSpec(QuerySeries(engine, 0)), options).ok();
  if (workload.name == "mixed-rw") {
    ok = ok && engine.planner().Plan(KnnSpec(QuerySeries(engine, 0)), options).ok();
  }
  return ok;
}

LoopOutcome RunLoop(const WorkloadConfig& workload,
                    core::SimilarityEngine& engine, std::uint64_t seed,
                    double seconds, std::size_t max_ops, SpanLog* spans) {
  const core::ExecOptions options = BenchExecOptions();
  core::BatchOptions batch_options;
  batch_options.exec = options;
  batch_options.use_result_cache = false;
  const Counters counters = Counters::Get();
  const core::Dataset& dataset = engine.dataset();
  const bool fig5 = workload.name == "fig5-range" ||
                    workload.name == "fig5-batch64";
  const bool batched = workload.name == "fig5-batch64";
  const bool join = workload.name == "fig7-join";

  Rng rng(Mix(seed, kQueryStream));
  // Fig. 5 queries walk a seeded permutation of the relation, so no query
  // repeats within a run (8000 members outlast any run length used here).
  std::vector<std::size_t> permutation;
  if (fig5) {
    permutation.resize(dataset.size());
    for (std::size_t i = 0; i < permutation.size(); ++i) permutation[i] = i;
    for (std::size_t i = permutation.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(i)));
      std::swap(permutation[i], permutation[j]);
    }
  }
  std::size_t next_query = 0;
  const auto next_fig5_id = [&] {
    return permutation[next_query++ % permutation.size()];
  };
  const core::JoinQuerySpec join_spec = JoinSpec();

  LoopOutcome out;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t loop_start = MonotonicNanos();
  std::uint64_t probe_ns = 0;
  std::uint64_t last_probe = 0;
  const auto probe = [&] {
    const std::uint64_t start = MonotonicNanos();
    out.probe_us.push_back(HostProbeMicros());
    last_probe = MonotonicNanos();
    probe_ns += last_probe - start;
  };
  for (std::size_t i = 0;; ++i) {
    if (max_ops > 0) {
      if (i >= max_ops) break;
    } else if (i >= workload.fingerprint_ops &&
               MonotonicNanos() - loop_start - probe_ns >= budget_ns) {
      break;
    }
    if (i == 0 || MonotonicNanos() - last_probe >= kProbeEveryNs) probe();

    OpRecord op;
    if (batched) {
      op.kind = OpKind::kBatch;
      std::vector<std::size_t> ids(kBatchSize);
      std::vector<core::QuerySpec> specs;
      specs.reserve(kBatchSize);
      for (std::size_t& id : ids) {
        id = next_fig5_id();
        specs.emplace_back(RangeSpec(QuerySeries(engine, id)));
      }
      const auto before = counters.Read();
      op.start_ns = MonotonicNanos();
      const std::vector<Result<core::QueryResult>> results =
          engine.ExecuteBatch(specs, batch_options);
      op.end_ns = MonotonicNanos();
      AddDeltas(before, counters.Read(), &op);
      for (std::size_t q = 0; q < results.size(); ++q) {
        if (!results[q].ok()) {
          ++op.failures;
          continue;
        }
        AddResult(*results[q], &op);
        // Every entry is compared with a solo Execute; a sample of them
        // with the oracle too.
        CheckSample& s = out.samples.emplace_back();
        s.query = ids[q];
        s.digest = Digest(results[q]->range()->matches);
        s.check_solo = true;
        s.check_oracle = Sampled(seed, i * kBatchSize + q);
        if (s.check_oracle) s.range = results[q]->range()->matches;
      }
      op.failures += kBatchSize - results.size();
    } else {
      core::QuerySpec spec;
      if (join) {
        op.kind = OpKind::kJoin;
      } else if (fig5) {
        op.kind = OpKind::kRange;
      } else {
        const double u = rng.NextDouble();
        op.kind = u < 0.70   ? OpKind::kRange
                  : u < 0.90 ? OpKind::kKnn
                  : u < 0.95 ? OpKind::kInsert
                             : OpKind::kRemove;
      }
      ts::Series fresh;
      // Query member of a range / k-NN op, or the id a remove deletes.
      std::size_t target = 0;
      switch (op.kind) {
        case OpKind::kRange:
          target = fig5 ? next_fig5_id() : RandomLiveId(dataset, rng);
          spec = RangeSpec(QuerySeries(engine, target));
          break;
        case OpKind::kKnn:
          target = RandomLiveId(dataset, rng);
          spec = KnnSpec(QuerySeries(engine, target));
          break;
        case OpKind::kInsert:
          fresh = ts::GenerateRandomWalk(kLength, kWalkStep, rng);
          break;
        case OpKind::kRemove:
          target = RandomLiveId(dataset, rng);
          break;
        default:
          break;
      }

      const auto before = counters.Read();
      op.start_ns = MonotonicNanos();
      Result<core::QueryResult> result = Status::Internal("not a query");
      Status write_status;
      if (op.kind == OpKind::kJoin) {
        result = engine.Execute(join_spec, options);
      } else if (op.kind == OpKind::kInsert) {
        write_status = engine.Insert(fresh).status();
      } else if (op.kind == OpKind::kRemove) {
        write_status = engine.Remove(target);
      } else {
        result = engine.Execute(spec, options);
      }
      op.end_ns = MonotonicNanos();
      AddDeltas(before, counters.Read(), &op);

      if (!IsRead(op.kind)) {
        if (!write_status.ok()) ++op.failures;
      } else if (!result.ok()) {
        ++op.failures;
      } else {
        AddResult(*result, &op);
        // Every join is kept (the first against the oracle, the rest by
        // digest against the first); range and k-NN ops by seeded sample.
        const bool oracle = join ? i == 0 : Sampled(seed, i);
        if (join || oracle) {
          CheckSample& s = out.samples.emplace_back();
          s.kind = op.kind;
          s.query = target;
          s.check_oracle = oracle;
          if (join) {
            s.digest = Digest(result->join()->matches);
            if (oracle) s.join = result->join()->matches;
          } else if (op.kind == OpKind::kRange) {
            s.range = result->range()->matches;
          } else {
            s.knn = result->knn()->matches;
          }
          if (!fig5 && !join) {
            s.live.resize(dataset.size());
            for (std::size_t id = 0; id < dataset.size(); ++id) {
              s.live[id] = !dataset.removed(id);
            }
          }
        }
      }
    }
    op.probe = out.probe_us.size() - 1;
    RecordSpans(op, spans);
    out.ops.push_back(std::move(op));
  }
  probe();
  out.wall_ns = MonotonicNanos() - loop_start - probe_ns;
  for (OpRecord& op : out.ops) {
    op.host_us = (out.probe_us[op.probe] + out.probe_us[op.probe + 1]) / 2;
  }
  return out;
}

std::size_t CheckOutputs(const core::SimilarityEngine& engine,
                         const LoopOutcome& loop, std::string* report) {
  const testing::Oracle oracle(engine.dataset());
  const core::ExecOptions options = BenchExecOptions();
  std::size_t wrong = 0;
  const auto fail = [&](const std::string& what) {
    ++wrong;
    if (report->size() < 4096) *report += what + "\n";
  };

  const core::JoinQuerySpec join_spec = JoinSpec();
  const CheckSample* first_join = nullptr;
  for (const CheckSample& sample : loop.samples) {
    const std::vector<bool>* live = sample.live.empty() ? nullptr : &sample.live;
    if (sample.kind == OpKind::kRange) {
      const core::RangeQuerySpec range =
          RangeSpec(QuerySeries(engine, sample.query));
      bool ok = true;
      if (sample.check_solo) {
        const Result<core::QueryResult> solo = engine.Execute(range, options);
        ok = solo.ok() && Digest(solo->range()->matches) == sample.digest;
        if (!ok) fail("batch entry differs from solo Execute");
      }
      if (ok && sample.check_oracle) {
        const std::vector<core::Match> expected = oracle.Range(range, live);
        std::vector<core::Match> got = sample.range;
        core::SortMatches(&got);
        ok = expected.size() == got.size();
        for (std::size_t m = 0; ok && m < got.size(); ++m) {
          ok = expected[m].series_id == got[m].series_id &&
               expected[m].transform_index == got[m].transform_index &&
               Close(expected[m].distance, got[m].distance);
        }
        if (!ok) {
          fail("range result differs from oracle (" +
               std::to_string(expected.size()) + " expected, " +
               std::to_string(got.size()) + " got)");
        }
      }
    } else if (sample.kind == OpKind::kKnn) {
      const std::vector<core::KnnMatch> expected =
          oracle.Knn(KnnSpec(QuerySeries(engine, sample.query)), live);
      bool ok = expected.size() == sample.knn.size();
      for (std::size_t m = 0; ok && m < expected.size(); ++m) {
        ok = expected[m].series_id == sample.knn[m].series_id &&
             Close(expected[m].distance, sample.knn[m].distance);
      }
      if (!ok) fail("k-NN result differs from oracle");
    } else {
      if (first_join != nullptr) {
        // Every later join repeats the first one on an unchanged engine.
        if (sample.digest != first_join->digest) {
          fail("join result changed between runs");
        }
        continue;
      }
      first_join = &sample;
      std::vector<core::JoinMatch> expected = oracle.Join(join_spec, live);
      std::vector<core::JoinMatch> got = sample.join;
      core::SortJoinMatches(&expected);
      core::SortJoinMatches(&got);
      bool ok = expected.size() == got.size();
      for (std::size_t m = 0; ok && m < got.size(); ++m) {
        ok = expected[m].a == got[m].a && expected[m].b == got[m].b &&
             expected[m].transform_index == got[m].transform_index &&
             Close(expected[m].value, got[m].value);
      }
      if (!ok) {
        fail("join pairs differ from oracle (" +
             std::to_string(expected.size()) + " expected, " +
             std::to_string(got.size()) + " got)");
      }
    }
  }
  return wrong;
}

std::string Fingerprint(const WorkloadConfig& workload,
                        const std::vector<OpRecord>& ops) {
  std::uint64_t hash = kFnvOffset;
  const std::size_t count = std::min(workload.fingerprint_ops, ops.size());
  for (std::size_t i = 0; i < count; ++i) {
    const OpRecord& op = ops[i];
    std::ostringstream line;
    line << OpKindName(op.kind) << ' ' << op.plan << ' '
         << op.stats.index_nodes_accessed << ' '
         << op.stats.index_leaves_accessed << ' ' << op.stats.record_pages_read
         << ' ' << op.stats.candidates << ' ' << op.stats.comparisons << ' '
         << op.stats.output_size << ' ' << op.kernel_calls << ' '
         << op.early_abandons << ' ' << op.page_writes << ' ' << op.failures
         << '\n';
    const std::string text = line.str();
    hash = Fnv1a(hash, text.data(), text.size());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(hex) + "/" + std::to_string(count);
}

}  // namespace tsq::perfbench
