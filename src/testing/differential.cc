#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/rng.h"
#include "core/join_query.h"
#include "core/range_query.h"
#include "kernels/kernels.h"
#include "testing/fault_policy.h"
#include "ts/generate.h"

namespace tsq::testing {

namespace {

// Writes per case of each mode that commits any.
constexpr std::size_t kMutateInserts = 5;
constexpr std::size_t kMutateRemoves = 4;
constexpr std::size_t kBatchMutateInserts = 4;
constexpr std::size_t kBatchMutateRemoves = 3;
constexpr std::size_t kCheckpointInserts = 3;
constexpr std::size_t kCheckpointRemoves = 2;
// A generated batch holds 3–5 base specs, and each base spec is re-enqueued
// verbatim later in the batch with this probability; a duplicate executes
// again and must equal its original.
constexpr std::size_t kMinBatchSpecs = 3;
constexpr std::size_t kMaxBatchSpecs = 5;
constexpr double kDuplicateProbability = 0.4;

constexpr core::Algorithm kAlgorithms[] = {
    core::Algorithm::kSequentialScan, core::Algorithm::kStIndex,
    core::Algorithm::kMtIndex, core::Algorithm::kAuto};
// Sweep holds each algorithm's runs to its run at the first count.
constexpr std::size_t kThreadCounts[] = {1, 4, 8};
constexpr std::size_t kMutateThreadCounts[] = {1, 4};
// The fault sweep's slice of the cube, at 4 threads: MT-index reads index
// pages and then the bound's fetches, the sequential scan every record page.
constexpr core::Algorithm kFaultAlgorithms[] = {
    core::Algorithm::kMtIndex, core::Algorithm::kSequentialScan};
constexpr std::size_t kFaultThreads = 4;

// The fault sweep's schedules, for single queries and batches alike.
constexpr FaultPolicyConfig kFaultPolicies[] = {
    {.fail_nth_read = 1},
    {.fail_nth_read = 5, .failure_code = StatusCode::kCorruption},
    {.fail_nth_read = 33},
    {.fail_every_k = 7},
    {.corrupt_nth_read = 3},
    {.short_nth_read = 2, .short_read_bytes = 512},
    {.delay_nanos = 2000},  // latency only: every run must match
};

bool Close(double a, double b, double tol) {
  return std::fabs(a - b) <=
         tol * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

std::string DescribeConfig(core::Algorithm algorithm, std::size_t threads) {
  return std::string(core::AlgorithmName(algorithm)) + "/" +
         std::to_string(threads) + "t";
}

core::ExecOptions Options(core::Algorithm algorithm, std::size_t threads) {
  core::ExecOptions options;
  options.planner.algorithm = algorithm;
  options.num_threads = threads;
  return options;
}

std::vector<bool> LiveMask(const core::Dataset& dataset) {
  std::vector<bool> live(dataset.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = !dataset.removed(i);
  return live;
}

// What a match must share with the oracle's exactly, and the value that need
// only be close. k-NN compares the series alone: unitary transformations
// (e.g. time shifts under kBoth) produce mathematically equal distances, so
// the argmin transformation is floating-point noise.
auto Key(const core::Match& m) {
  return std::tuple(m.series_id, m.transform_index);
}
auto Key(const core::KnnMatch& m) { return std::tuple(m.series_id); }
auto Key(const core::JoinMatch& m) {
  return std::tuple(m.a, m.b, m.transform_index);
}
double Value(const core::Match& m) { return m.distance; }
double Value(const core::KnnMatch& m) { return m.distance; }
double Value(const core::JoinMatch& m) { return m.value; }

template <typename M>
std::string Describe(const M& m) {
  std::ostringstream out;
  out.precision(17);
  if constexpr (std::is_same_v<M, core::JoinMatch>) {
    out << "(" << m.a << ", " << m.b << ", t" << m.transform_index
        << ", v=" << m.value << ")";
  } else {
    out << "(series " << m.series_id << ", t" << m.transform_index
        << ", D=" << m.distance << ")";
  }
  return out.str();
}

std::string Describe(const core::GroupRunStats& group) {
  std::ostringstream out;
  out << "{da_all " << group.da_all << ", da_leaf " << group.da_leaf
      << ", transforms " << group.transforms << ", candidates "
      << group.candidates << "}";
  return out.str();
}

std::string Describe(const core::QueryStats& stats) {
  std::ostringstream out;
  out << "{nodes " << stats.index_nodes_accessed << ", leaves "
      << stats.index_leaves_accessed << ", record pages "
      << stats.record_pages_read << ", candidates " << stats.candidates
      << ", verified " << stats.verified_candidates << ", comparisons "
      << stats.comparisons << ", traversals " << stats.traversals
      << ", output " << stats.output_size << "}";
  return out.str();
}

// The first element where `same` fails, or "".
template <typename T, typename Same>
std::string ListDiff(const char* what, const std::vector<T>& expected,
                     const std::vector<T>& got, const Same& same) {
  if (expected.size() != got.size()) {
    return std::string(what) + " count: expected " +
           std::to_string(expected.size()) + ", got " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!same(expected[i], got[i])) {
      return std::string(what) + " " + std::to_string(i) + ": expected " +
             Describe(expected[i]) + ", got " + Describe(got[i]);
    }
  }
  return "";
}

// The oracle verdict on one run that must not error.
std::string RunDiff(const Result<core::QueryResult>& result,
                    const OracleExpectation& expected,
                    core::Algorithm algorithm, double tolerance) {
  if (!result.ok()) {
    return "unexpected error status: " + result.status().ToString();
  }
  return OracleDiff(expected, *result, algorithm, tolerance);
}

// A generated batch: the base specs, then seeded verbatim duplicates.
struct Batch {
  std::vector<core::QuerySpec> specs;
  std::vector<std::size_t> origin;  // the base entry specs[i] copies
  std::string description;
};

Batch MakeBatch(const WorkloadGenerator& generator,
                const core::SimilarityEngine& engine, const Oracle& oracle,
                std::size_t index, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t base_count =
      kMinBatchSpecs + static_cast<std::size_t>(rng.UniformInt(
                           0, static_cast<std::int64_t>(kMaxBatchSpecs -
                                                        kMinBatchSpecs)));
  Batch batch;
  std::ostringstream description;
  description << "batch{";
  for (std::size_t j = 0; j < base_count; ++j) {
    WorkloadCase work = generator.MakeCase(index * 8 + j, engine, oracle);
    description << (j > 0 ? "; " : "") << work.description;
    batch.origin.push_back(j);
    batch.specs.push_back(std::move(work.spec));
  }
  for (std::size_t j = 0; j < base_count; ++j) {
    if (rng.Bernoulli(kDuplicateProbability)) {
      batch.origin.push_back(j);
      batch.specs.push_back(batch.specs[j]);
    }
  }
  description << "} +" << (batch.specs.size() - base_count) << " dup";
  batch.description = description.str();
  return batch;
}

// Holds one ExecuteBatch call to the per-spec baselines: every entry equals
// its baseline (ExactDiff), reports the batch size and pins the batch's one
// snapshot version. An errored entry fails the case, or, when `errored` is
// non-null (a fault run), is counted there instead.
void CheckBatch(const std::vector<Result<core::QueryResult>>& batch,
                const std::vector<core::QueryResult>& baselines,
                const std::string& context, std::size_t* errored,
                CaseOutcome& outcome) {
  if (batch.size() != baselines.size()) {
    outcome.Fail("batch returned " + std::to_string(batch.size()) +
                 " results for " + std::to_string(baselines.size()) +
                 " specs (" + context + ")");
    return;
  }
  std::uint64_t version = 0;
  bool pinned = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string entry =
        "batch entry " + std::to_string(i) + " (" + context + ")";
    if (!batch[i].ok()) {
      if (errored == nullptr) {
        outcome.Fail(entry + " errored: " + batch[i].status().ToString());
      } else {
        ++*errored;
      }
      continue;
    }
    const obs::QueryTrace& trace = batch[i]->trace();
    if (const std::string diff = ExactDiff(baselines[i], *batch[i]);
        !diff.empty()) {
      outcome.Fail(entry + (errored ? " neither matched nor errored: " : ": ") +
                   diff);
    } else if (trace.batch_size != batch.size()) {
      outcome.Fail(entry + " reports batch_size " +
                   std::to_string(trace.batch_size) + " for a " +
                   std::to_string(batch.size()) + "-spec batch");
    } else if (pinned && trace.snapshot_version != version) {
      outcome.Fail("batch pinned two snapshot versions (" + context +
                   "): v" + std::to_string(version) + " and v" +
                   std::to_string(trace.snapshot_version));
    }
    version = trace.snapshot_version;
    pinned = true;
  }
}

// One sweep configuration of a mutate mode and the results it returned, all
// at one pinned snapshot version; results[i] answers the batch's specs[i].
struct PinnedRun {
  core::Algorithm algorithm = core::Algorithm::kAuto;
  std::size_t threads = 0;
  std::uint64_t version = 0;
  std::vector<core::QueryResult> results;
};

// The writer thread of the mutate modes: seeded random-walk inserts
// interleaved with removes of ids it knows to be live (it is the only
// writer, so its view is exact), each logged with the write version it
// committed. After Finish(), the log replays the liveness at any version a
// query pinned.
class Writer {
 public:
  Writer(core::SimilarityEngine& engine, std::uint64_t seed,
         std::size_t inserts, std::size_t removes)
      : engine_(engine),
        base_version_(engine.write_version()),
        base_live_(LiveMask(engine.dataset())) {
    log_.reserve(inserts + removes);
    thread_ = std::thread([=, this] {
      try {
        Run(seed, inserts, removes);
      } catch (const std::exception& e) {
        failure_ = std::string("exception: ") + e.what();
      }
    });
  }
  ~Writer() {
    if (thread_.joinable()) thread_.join();
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Waits for the writes; records their count and any failure on `outcome`.
  void Finish(CaseOutcome& outcome) {
    thread_.join();
    outcome.writes = log_.size();
    if (!failure_.empty()) outcome.Fail("writer: " + failure_);
  }

  // After Finish(): checks every run, in the order it was issued, against the
  // oracle replayed at the version it pinned. A version must lie within the
  // case's writes and, as runs are issued one after another, never fall
  // below the previous run's. The expectation of one (base spec, version)
  // pair is evaluated once: duplicates share it, and every run issued after
  // the writes finished pins the same final version.
  void CheckRuns(const Batch& batch, const std::vector<PinnedRun>& runs,
                 double tolerance, CaseOutcome& outcome) const {
    // Spectra exist for every id ever appended, tombstoned or not.
    const Oracle oracle(engine_.dataset());
    const std::uint64_t last_version = base_version_ + log_.size();
    std::uint64_t previous = base_version_;
    std::map<std::pair<std::size_t, std::uint64_t>, OracleExpectation> memo;
    for (const PinnedRun& run : runs) {
      const std::string config = DescribeConfig(run.algorithm, run.threads);
      std::ostringstream bad;
      if (run.version < base_version_ || run.version > last_version) {
        bad << "pinned snapshot v" << run.version << " outside ["
            << base_version_ << ", " << last_version << "] under " << config;
      } else if (run.version < previous) {
        bad << "pinned snapshot went backwards under " << config << ": v"
            << run.version << " after v" << previous;
      }
      previous = std::max(previous, run.version);
      if (!bad.str().empty()) {
        outcome.Fail(bad.str());
        continue;
      }
      for (std::size_t i = 0; i < run.results.size(); ++i) {
        const std::pair key(batch.origin[i], run.version);
        auto it = memo.find(key);
        if (it == memo.end()) {
          const std::vector<bool> live = LiveAt(run.version);
          it = memo.emplace(key, ExpectedFor(oracle, batch.specs[key.first],
                                             &live))
                   .first;
        }
        const std::string diff = OracleDiff(it->second, run.results[i],
                                            run.algorithm, tolerance);
        if (!diff.empty()) {
          outcome.Fail("entry " + std::to_string(i) +
                       " diverged at snapshot v" +
                       std::to_string(run.version) + " under " + config +
                       ": " + diff);
        }
      }
    }
  }

 private:
  struct WriteOp {
    std::uint64_t version;  // engine write version after this op committed
    bool insert;
    std::size_t id;
  };

  void Run(std::uint64_t seed, std::size_t inserts, std::size_t removes) {
    Rng rng(seed);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < base_live_.size(); ++i) {
      if (base_live_[i]) live.push_back(i);
    }
    while (inserts + removes > 0) {
      if (removes == 0 || live.empty() ||
          (inserts > 0 && rng.Bernoulli(0.5))) {
        --inserts;
        const Result<std::size_t> id = engine_.Insert(
            ts::GenerateRandomWalk(engine_.length(), 500.0, rng));
        if (!id.ok()) {
          failure_ = "insert failed: " + id.status().ToString();
          return;
        }
        live.push_back(*id);
        log_.push_back(WriteOp{engine_.write_version(), true, *id});
      } else {
        --removes;
        const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        const std::size_t id = live[pick];
        live.erase(live.begin() + pick);
        if (const Status removed = engine_.Remove(id); !removed.ok()) {
          failure_ = "remove failed: " + removed.ToString();
          return;
        }
        log_.push_back(WriteOp{engine_.write_version(), false, id});
      }
      if (log_.back().version != base_version_ + log_.size()) {
        failure_ = "unexpected write version (another writer?)";
        return;
      }
      std::this_thread::yield();  // give queries a chance between commits
    }
  }

  std::vector<bool> LiveAt(std::uint64_t version) const {
    std::vector<bool> live = base_live_;
    live.resize(engine_.dataset().size(), false);
    for (const WriteOp& op : log_) {
      if (op.version > version) break;
      live[op.id] = op.insert;
    }
    return live;
  }

  core::SimilarityEngine& engine_;
  const std::uint64_t base_version_;
  const std::vector<bool> base_live_;
  std::vector<WriteOp> log_;  // the thread's until Finish(), then the caller's
  std::string failure_;
  std::thread thread_;
};

}  // namespace

OracleExpectation ExpectedFor(const Oracle& oracle, const core::QuerySpec& spec,
                              const std::vector<bool>* live) {
  OracleExpectation expected;
  if (const auto* range = std::get_if<core::RangeQuerySpec>(&spec)) {
    expected.range = oracle.Range(*range, live);
  } else if (const auto* knn = std::get_if<core::KnnQuerySpec>(&spec)) {
    expected.knn = oracle.Knn(*knn, live);
  } else {
    const auto& join = std::get<core::JoinQuerySpec>(spec);
    expected.join = oracle.Join(join, live);
    expected.correlation_join = join.mode == core::JoinMode::kCorrelation;
  }
  return expected;
}

std::string OracleDiff(const OracleExpectation& expected,
                       const core::QueryResult& got,
                       core::Algorithm algorithm, double tolerance) {
  const auto close = [tolerance](const auto& e, const auto& g) {
    return Key(e) == Key(g) && Close(Value(e), Value(g), tolerance);
  };
  if (const auto* range = got.range()) {
    std::vector<core::Match> sorted = range->matches;
    core::SortMatches(&sorted);
    return ListDiff("range match", expected.range, sorted, close);
  }
  if (const auto* knn = got.knn()) {
    return ListDiff("knn match", expected.knn, knn->matches, close);
  }
  std::vector<core::JoinMatch> sorted = got.join()->matches;
  core::SortJoinMatches(&sorted);
  if (!expected.correlation_join ||
      algorithm == core::Algorithm::kSequentialScan) {
    return ListDiff("join match", expected.join, sorted, close);
  }
  // An indexed correlation join may miss pairs; every pair it does report
  // must be an oracle pair with the oracle's value.
  std::map<decltype(Key(core::JoinMatch())), double> oracle_pairs;
  for (const core::JoinMatch& m : expected.join) oracle_pairs[Key(m)] = m.value;
  for (const core::JoinMatch& m : sorted) {
    const auto it = oracle_pairs.find(Key(m));
    if (it == oracle_pairs.end()) {
      return "join pair " + Describe(m) + " is not an oracle match";
    }
    if (!Close(it->second, m.value, tolerance)) {
      core::JoinMatch want = m;
      want.value = it->second;
      return "join pair: expected " + Describe(want) + ", got " + Describe(m);
    }
  }
  return "";
}

std::string ExactDiff(const core::QueryResult& expected,
                      const core::QueryResult& got) {
  if (expected.value.index() != got.value.index()) {
    return "result kinds differ";
  }
  const std::string diff = std::visit(
      [&](const auto& want) {
        using Kind = std::decay_t<decltype(want)>;
        return ListDiff("match", want.matches,
                        std::get<Kind>(got.value).matches, std::equal_to<>());
      },
      expected.value);
  if (!diff.empty()) return diff;
  if (!(expected.stats() == got.stats())) {
    return "stats: expected " + Describe(expected.stats()) + ", got " +
           Describe(got.stats());
  }
  if (std::string groups = ListDiff("group_stats rect", expected.group_stats,
                                    got.group_stats, std::equal_to<>());
      !groups.empty()) {
    return groups;
  }
  const std::string want = expected.trace().DeterministicSignature();
  const std::string have = got.trace().DeterministicSignature();
  if (want != have) {
    return "trace signature: expected \"" + want + "\", got \"" + have + "\"";
  }
  return "";
}

void CaseOutcome::Fail(const std::string& what) {
  if (!passed) return;
  passed = false;
  failure = what;
}

DifferentialRunner::DifferentialRunner(std::uint64_t seed)
    : generator_(seed), engine_(WorkloadGenerator(seed).MakeSeries()) {}

CaseOutcome DifferentialRunner::RunCase(std::size_t index,
                                        const DiffConfig& config) {
  const Oracle oracle(engine_.dataset());
  return Sweep(generator_.MakeCase(index, engine_, oracle), oracle, config);
}

CaseOutcome DifferentialRunner::RunQueryTransformCase(
    std::size_t index, const DiffConfig& config) {
  const Oracle oracle(engine_.dataset());
  CaseOutcome outcome =
      Sweep(generator_.MakeQueryTransformCase(index, engine_, oracle), oracle,
            config);
  outcome.description += " [query transform]";
  return outcome;
}

CaseOutcome DifferentialRunner::Sweep(const WorkloadCase& work,
                                      const Oracle& oracle,
                                      const DiffConfig& config) {
  CaseOutcome outcome;
  outcome.description = work.description;
  const OracleExpectation expected = ExpectedFor(oracle, work.spec);

  // Fault-free sweep over the configuration cube plus one run per algorithm
  // under the other kernel ISA (see RunCase). Every run must match the
  // oracle, and each algorithm's first run is the reference its others must
  // equal byte for byte. kAuto rides along as a fourth algorithm; its plan is
  // part of the trace signature, so it must not vary either. Without AVX2
  // the other ISA is scalar too.
  const kernels::Isa active = kernels::ActiveIsa();
  const kernels::Isa other = active == kernels::Isa::kAvx2
                                 ? kernels::Isa::kScalar
                                 : kernels::BestSupportedIsa();
  for (const core::Algorithm algorithm : kAlgorithms) {
    std::optional<core::QueryResult> reference;
    const auto run = [&](std::size_t threads, kernels::Isa isa) {
      kernels::ForceIsaForTesting(isa);
      Result<core::QueryResult> result =
          engine_.Execute(work.spec, Options(algorithm, threads));
      kernels::ForceIsaForTesting(active);
      ++outcome.runs;
      const std::string config_text = DescribeConfig(algorithm, threads) +
                                      "/" + kernels::IsaName(isa);
      if (const std::string diff =
              RunDiff(result, expected, algorithm, config.tolerance);
          !diff.empty()) {
        outcome.Fail("divergence under " + config_text + ": " + diff);
      } else if (!reference.has_value()) {
        reference = std::move(*result);
      } else if (const std::string exact = ExactDiff(*reference, *result);
                 !exact.empty()) {
        outcome.Fail(config_text + " differs from " +
                     DescribeConfig(algorithm, kThreadCounts[0]) + "/" +
                     kernels::IsaName(active) + ": " + exact);
      }
    };
    for (const std::size_t threads : kThreadCounts) run(threads, active);
    run(kThreadCounts[0], other);
  }
  if (!outcome.passed || !config.with_faults) return outcome;

  // Fault sweep: under every policy each run must either match the oracle
  // exactly or surface a non-OK Status — and a clean rerun right after must
  // match, proving the fault left the page-file state intact.
  for (const FaultPolicyConfig& policy_config : kFaultPolicies) {
    for (const core::Algorithm algorithm : kFaultAlgorithms) {
      const core::ExecOptions options = Options(algorithm, kFaultThreads);
      FaultPolicy policy(policy_config);
      engine_.SetReadFaultHook(&policy);
      const Result<core::QueryResult> faulted =
          engine_.Execute(work.spec, options);
      engine_.SetReadFaultHook(nullptr);
      ++outcome.fault_runs;
      const std::string context =
          DescribeConfig(algorithm, kFaultThreads) + " under " +
          policy.Describe();
      if (!faulted.ok()) {
        ++outcome.fault_errors;
      } else if (const std::string diff = OracleDiff(
                     expected, *faulted, algorithm, config.tolerance);
                 !diff.empty()) {
        outcome.Fail("fault run neither matched nor errored (" + context +
                     "): " + diff);
      }
      if (const std::string diff =
              RunDiff(engine_.Execute(work.spec, options), expected,
                      algorithm, config.tolerance);
          !diff.empty()) {
        outcome.Fail("clean rerun after " + context + ": " + diff);
      }
      if (!outcome.passed) return outcome;
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunMutateCase(std::size_t index,
                                              const DiffConfig& config) {
  WorkloadCase work =
      generator_.MakeCase(index, engine_, Oracle(engine_.dataset()));
  const Batch single{
      {std::move(work.spec)}, {0}, work.description + " [mutate]"};
  CaseOutcome outcome;
  outcome.description = single.description;

  Writer writer(engine_, generator_.seed() * 0x9E3779B97F4A7C15ull + index,
                kMutateInserts, kMutateRemoves);
  // Two passes widen the window in which commits can land between (and
  // during) executions.
  std::vector<PinnedRun> runs;
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::Algorithm algorithm : kAlgorithms) {
      for (const std::size_t threads : kMutateThreadCounts) {
        Result<core::QueryResult> result =
            engine_.Execute(single.specs[0], Options(algorithm, threads));
        ++outcome.runs;
        if (!result.ok()) {
          outcome.Fail("unexpected error status (no faults injected) under " +
                       DescribeConfig(algorithm, threads) + ": " +
                       result.status().ToString());
          continue;
        }
        const std::uint64_t version = result->trace().snapshot_version;
        runs.push_back(PinnedRun{algorithm, threads, version, {}});
        runs.back().results.push_back(std::move(*result));
      }
    }
  }
  writer.Finish(outcome);
  writer.CheckRuns(single, runs, config.tolerance, outcome);
  return outcome;
}

CaseOutcome DifferentialRunner::RunBatchCase(std::size_t index,
                                             const DiffConfig& config) {
  const Oracle oracle(engine_.dataset());
  const Batch batch =
      MakeBatch(generator_, engine_, oracle, index,
                generator_.seed() * 0x94D049BB133111EBull + index);
  CaseOutcome outcome;
  outcome.description = batch.description;

  std::vector<OracleExpectation> expected;
  expected.reserve(batch.specs.size());
  for (std::size_t i = 0; i < batch.specs.size(); ++i) {
    expected.push_back(batch.origin[i] == i
                           ? ExpectedFor(oracle, batch.specs[i])
                           : expected[batch.origin[i]]);
  }

  // Per-algorithm sequential baselines: Execute() one spec at a time, check
  // each against the oracle, then hold the results as the exactness
  // reference for every batched configuration of that algorithm.
  std::map<core::Algorithm, std::vector<core::QueryResult>> baselines;
  for (const core::Algorithm algorithm : kAlgorithms) {
    for (std::size_t i = 0; i < batch.specs.size(); ++i) {
      Result<core::QueryResult> result =
          engine_.Execute(batch.specs[i], Options(algorithm, 1));
      ++outcome.runs;
      if (const std::string diff =
              RunDiff(result, expected[i], algorithm, config.tolerance);
          !diff.empty()) {
        outcome.Fail("sequential baseline " + std::to_string(i) + " under " +
                     DescribeConfig(algorithm, 1) + ": " + diff);
        return outcome;
      }
      baselines[algorithm].push_back(std::move(*result));
    }
  }

  // The batched sweep: every entry — duplicates included, which execute
  // again — must match its sequential baseline byte-for-byte.
  for (const core::Algorithm algorithm : kAlgorithms) {
    for (const std::size_t threads : kThreadCounts) {
      CheckBatch(engine_.ExecuteBatch(batch.specs,
                                      {.exec = Options(algorithm, threads)}),
                 baselines[algorithm], DescribeConfig(algorithm, threads),
                 nullptr, outcome);
      ++outcome.runs;
      if (!outcome.passed) return outcome;
    }
  }
  if (!config.with_faults) return outcome;

  // Fault sweep: under each policy every batch entry must either surface a
  // non-OK Status or carry the exact fault-free result. Every entry does its
  // own reads, so a faulted read fails the one entry that made it: a policy
  // faulting m single reads (fail-nth, corrupt-nth, short-nth) may fail at
  // most m entries, and a latency-only policy none. A clean rerun right
  // after must fully match: the fault left storage state intact.
  for (const FaultPolicyConfig& policy_config : kFaultPolicies) {
    // fail-every-k faults without limit; the others fault one read each.
    const bool periodic = policy_config.fail_every_k != 0;
    const std::size_t faulted_reads = (policy_config.fail_nth_read != 0) +
                                      (policy_config.corrupt_nth_read != 0) +
                                      (policy_config.short_nth_read != 0);
    for (const core::Algorithm algorithm : kFaultAlgorithms) {
      const core::BatchOptions options{.exec =
                                           Options(algorithm, kFaultThreads)};
      FaultPolicy policy(policy_config);
      engine_.SetReadFaultHook(&policy);
      const std::vector<Result<core::QueryResult>> faulted =
          engine_.ExecuteBatch(batch.specs, options);
      engine_.SetReadFaultHook(nullptr);
      ++outcome.fault_runs;
      const std::string context =
          DescribeConfig(algorithm, kFaultThreads) + " under " +
          policy.Describe();
      std::size_t errored = 0;
      CheckBatch(faulted, baselines[algorithm], context, &errored, outcome);
      outcome.fault_errors += errored;
      if (!periodic && errored > faulted_reads) {
        outcome.Fail(std::to_string(errored) + " batch entries errored (" +
                     context + "), but the policy faults " +
                     std::to_string(faulted_reads) + " read(s)");
      }
      CheckBatch(engine_.ExecuteBatch(batch.specs, options),
                 baselines[algorithm], "clean rerun after " + context,
                 nullptr, outcome);
      if (!outcome.passed) return outcome;
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunBatchMutateCase(std::size_t index,
                                                   const DiffConfig& config) {
  const Batch batch =
      MakeBatch(generator_, engine_, Oracle(engine_.dataset()), index,
                generator_.seed() * 0xBF58476D1CE4E5B9ull + index);
  CaseOutcome outcome;
  outcome.description = batch.description + " [mutate]";

  Writer writer(engine_, generator_.seed() * 0x2545F4914F6CDD1Dull + index,
                kBatchMutateInserts, kBatchMutateRemoves);
  // The concurrent batch sweep: each batch must pin exactly ONE snapshot for
  // all of its entries, and a duplicate, which executes again at that
  // snapshot, must be identical to its original.
  std::vector<PinnedRun> runs;
  for (const core::Algorithm algorithm : kAlgorithms) {
    for (const std::size_t threads : kMutateThreadCounts) {
      std::vector<Result<core::QueryResult>> results = engine_.ExecuteBatch(
          batch.specs, {.exec = Options(algorithm, threads)});
      ++outcome.runs;
      const std::string config_text = DescribeConfig(algorithm, threads);
      if (results.size() != batch.specs.size()) {
        outcome.Fail("batch returned " + std::to_string(results.size()) +
                     " results for " + std::to_string(batch.specs.size()) +
                     " specs (" + config_text + ")");
        continue;
      }
      PinnedRun run{algorithm, threads, 0, {}};
      for (std::size_t i = 0; i < results.size() && outcome.passed; ++i) {
        if (!results[i].ok()) {
          outcome.Fail("unexpected error status (no faults injected) entry " +
                       std::to_string(i) + " under " + config_text + ": " +
                       results[i].status().ToString());
          break;
        }
        const std::uint64_t version = results[i]->trace().snapshot_version;
        if (i > 0 && version != run.version) {
          outcome.Fail("batch pinned two snapshot versions under " +
                       config_text + ": v" + std::to_string(run.version) +
                       " and v" + std::to_string(version));
        }
        run.version = version;
        run.results.push_back(std::move(*results[i]));
      }
      if (!outcome.passed) continue;
      for (std::size_t i = 0; i < run.results.size(); ++i) {
        if (const std::string diff =
                ExactDiff(run.results[batch.origin[i]], run.results[i]);
            !diff.empty()) {
          outcome.Fail("duplicate entry " + std::to_string(i) +
                       " diverged from its original under " + config_text +
                       ": " + diff);
        }
      }
      runs.push_back(std::move(run));
    }
  }
  writer.Finish(outcome);
  writer.CheckRuns(batch, runs, config.tolerance, outcome);
  return outcome;
}

CaseOutcome DifferentialRunner::RunCheckpointCase(std::size_t index,
                                                  const std::string& prefix,
                                                  const DiffConfig& config) {
  const WorkloadCase work =
      generator_.MakeCase(index, engine_, Oracle(engine_.dataset()));
  CaseOutcome outcome;
  outcome.description = work.description + " [checkpoint]";
  const std::string path = prefix + "." + std::to_string(index);

  // Baseline checkpoint: the "old" durable state every pre-commit crash
  // must fall back to.
  if (const Status saved = engine_.SaveTo(path); !saved.ok()) {
    outcome.Fail("baseline SaveTo failed: " + saved.ToString());
    return outcome;
  }
  const std::uint64_t old_epoch = engine_.checkpoint_epoch();
  const std::vector<bool> old_live = LiveMask(engine_.dataset());

  // Advance the engine past the baseline so old and new answers differ —
  // a recovery that silently serves the wrong state must show up as a
  // divergence, not a coincidence.
  Rng rng(generator_.seed() * 0xD1B54A32D192ED03ull + index);
  std::vector<std::size_t> live_ids;
  for (std::size_t i = 0; i < old_live.size(); ++i) {
    if (old_live[i]) live_ids.push_back(i);
  }
  for (std::size_t n = 0; n < kCheckpointInserts; ++n) {
    const Result<std::size_t> id =
        engine_.Insert(ts::GenerateRandomWalk(engine_.length(), 500.0, rng));
    if (!id.ok()) {
      outcome.Fail("insert failed: " + id.status().ToString());
      return outcome;
    }
    live_ids.push_back(*id);
    ++outcome.writes;
  }
  for (std::size_t n = 0; n < kCheckpointRemoves && !live_ids.empty(); ++n) {
    const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(live_ids.size()) - 1));
    const std::size_t id = live_ids[pick];
    live_ids.erase(live_ids.begin() + pick);
    if (const Status removed = engine_.Remove(id); !removed.ok()) {
      outcome.Fail("remove failed: " + removed.ToString());
      return outcome;
    }
    ++outcome.writes;
  }

  // One oracle over the final dataset serves both states: the liveness mask
  // replays either snapshot (ids past the mask count as dead, so the old
  // mask works against the grown dataset).
  const Oracle oracle(engine_.dataset());
  const std::vector<bool> new_live = LiveMask(engine_.dataset());
  const OracleExpectation expected_old =
      ExpectedFor(oracle, work.spec, &old_live);
  const OracleExpectation expected_new =
      ExpectedFor(oracle, work.spec, &new_live);

  // Queries the recovered engine and diffs it against `expected`.
  const auto check_loaded = [&](const core::SimilarityEngine& loaded,
                                const OracleExpectation& expected,
                                const std::string& context) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::kSequentialScan, core::Algorithm::kAuto}) {
      ++outcome.runs;
      if (const std::string diff =
              RunDiff(loaded.Execute(work.spec, Options(algorithm, 1)),
                      expected, algorithm, config.tolerance);
          !diff.empty()) {
        outcome.Fail(context + ": recovered engine diverged under " +
                     DescribeConfig(algorithm, 1) + ": " + diff);
        return;
      }
    }
  };

  // The sweep: crash the save at step 1, 2, ... until a save runs out of
  // steps and completes. Every aborted save leaves a genuinely torn on-disk
  // state (the crash closes the file mid-write and skips all cleanup).
  for (std::uint64_t k = 1;; ++k) {
    CrashPolicy policy(k);
    engine_.SetCheckpointFaultHook(&policy);
    const Status saved = engine_.SaveTo(path);
    engine_.SetCheckpointFaultHook(nullptr);
    if (saved.ok()) {
      // k exceeded the save's step count: the save committed normally and
      // recovery must see exactly the new state.
      Result<std::unique_ptr<core::SimilarityEngine>> loaded =
          core::SimilarityEngine::LoadFrom(path);
      if (!loaded.ok()) {
        outcome.Fail("load after completed save failed: " +
                     loaded.status().ToString());
      } else {
        check_loaded(**loaded, expected_new, "after completed save");
      }
      break;
    }
    ++outcome.fault_runs;
    ++outcome.fault_errors;
    const std::string context = "crash at step " + std::to_string(k) + " (" +
                                policy.crashed_step() + ")";
    Result<std::unique_ptr<core::SimilarityEngine>> loaded =
        core::SimilarityEngine::LoadFrom(path);
    if (!loaded.ok()) {
      outcome.Fail(context +
                   ": recovery load failed: " + loaded.status().ToString());
      return outcome;
    }
    // The manifest epoch decides which committed state recovery landed on;
    // anything but "the baseline" or "the new checkpoint" is data loss.
    const std::uint64_t epoch = (*loaded)->checkpoint_epoch();
    if (epoch == old_epoch) {
      check_loaded(**loaded, expected_old, context + ", recovered old epoch");
    } else if (epoch > old_epoch) {
      check_loaded(**loaded, expected_new, context + ", recovered new epoch");
    } else {
      outcome.Fail(context + ": recovered epoch " + std::to_string(epoch) +
                   " older than baseline " + std::to_string(old_epoch));
    }
    if (!outcome.passed) return outcome;
    if (k > 10000) {
      outcome.Fail(
          "crash sweep did not terminate: SaveTo never ran out of steps");
      return outcome;
    }
  }
  return outcome;
}

}  // namespace tsq::testing
