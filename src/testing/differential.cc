#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "core/join_query.h"
#include "core/range_query.h"
#include "testing/fault_policy.h"
#include "ts/generate.h"

namespace tsq::testing {

namespace {

bool Close(double a, double b, double tol) {
  return std::fabs(a - b) <=
         tol * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

std::string DescribeConfig(core::Algorithm algorithm, std::size_t threads) {
  std::ostringstream out;
  out << core::AlgorithmName(algorithm) << "/" << threads << "t";
  return out.str();
}

std::string CompareRange(const std::vector<core::Match>& expected,
                         std::vector<core::Match> got, double tol) {
  core::SortMatches(&got);
  if (expected.size() != got.size()) {
    std::ostringstream out;
    out << "range match count: oracle " << expected.size() << ", engine "
        << got.size();
    return out.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const core::Match& e = expected[i];
    const core::Match& g = got[i];
    if (e.series_id != g.series_id || e.transform_index != g.transform_index ||
        !Close(e.distance, g.distance, tol)) {
      std::ostringstream out;
      out << "range match " << i << ": oracle (series " << e.series_id
          << ", t" << e.transform_index << ", D=" << e.distance
          << ") vs engine (series " << g.series_id << ", t"
          << g.transform_index << ", D=" << g.distance << ")";
      return out.str();
    }
  }
  return "";
}

std::string CompareKnn(const std::vector<core::KnnMatch>& expected,
                       const std::vector<core::KnnMatch>& got, double tol) {
  if (expected.size() != got.size()) {
    std::ostringstream out;
    out << "knn result count: oracle " << expected.size() << ", engine "
        << got.size();
    return out.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // transform_index is deliberately not compared: unitary transformations
    // (e.g. time shifts under kBoth) produce mathematically equal distances,
    // so the argmin transformation is floating-point noise.
    if (expected[i].series_id != got[i].series_id ||
        !Close(expected[i].distance, got[i].distance, tol)) {
      std::ostringstream out;
      out << "knn rank " << i << ": oracle (series " << expected[i].series_id
          << ", D=" << expected[i].distance << ") vs engine (series "
          << got[i].series_id << ", D=" << got[i].distance << ")";
      return out.str();
    }
  }
  return "";
}

std::string CompareJoin(const std::vector<core::JoinMatch>& expected,
                        std::vector<core::JoinMatch> got, double tol,
                        bool subset_ok) {
  core::SortJoinMatches(&got);
  if (subset_ok) {
    // Indexed correlation joins may miss pairs (documented filter property);
    // every pair they do report must be a correct oracle pair.
    std::unordered_map<std::uint64_t, double> oracle_pairs;
    oracle_pairs.reserve(expected.size() * 2);
    const auto key = [](const core::JoinMatch& m) {
      return (static_cast<std::uint64_t>(m.a) << 40) ^
             (static_cast<std::uint64_t>(m.b) << 16) ^
             static_cast<std::uint64_t>(m.transform_index);
    };
    for (const core::JoinMatch& m : expected) oracle_pairs[key(m)] = m.value;
    for (const core::JoinMatch& m : got) {
      auto it = oracle_pairs.find(key(m));
      if (it == oracle_pairs.end()) {
        std::ostringstream out;
        out << "join pair (" << m.a << ", " << m.b << ", t"
            << m.transform_index << ") reported but not an oracle match";
        return out.str();
      }
      if (!Close(it->second, m.value, tol)) {
        std::ostringstream out;
        out << "join pair (" << m.a << ", " << m.b << ", t"
            << m.transform_index << ") value: oracle " << it->second
            << ", engine " << m.value;
        return out.str();
      }
    }
    return "";
  }
  if (expected.size() != got.size()) {
    std::ostringstream out;
    out << "join match count: oracle " << expected.size() << ", engine "
        << got.size();
    return out.str();
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const core::JoinMatch& e = expected[i];
    const core::JoinMatch& g = got[i];
    if (e.a != g.a || e.b != g.b || e.transform_index != g.transform_index ||
        !Close(e.value, g.value, tol)) {
      std::ostringstream out;
      out << "join match " << i << ": oracle (" << e.a << ", " << e.b << ", t"
          << e.transform_index << ", v=" << e.value << ") vs engine (" << g.a
          << ", " << g.b << ", t" << g.transform_index << ", v=" << g.value
          << ")";
      return out.str();
    }
  }
  return "";
}

// Bitwise equality of two results' matches, in order.
std::string ExactMatchDiff(const core::QueryResult& expected,
                           const core::QueryResult& got) {
  const auto mismatch = [](const char* kind, std::size_t i,
                           const std::string& detail) {
    std::ostringstream out;
    out << kind << " match " << i << " differs from sequential baseline ("
        << detail << ")";
    return out.str();
  };
  if (const auto* range = expected.range()) {
    const auto* g = got.range();
    if (g == nullptr) return "result kind differs from sequential baseline";
    if (range->matches.size() != g->matches.size()) {
      std::ostringstream out;
      out << "range match count: sequential " << range->matches.size()
          << ", batch " << g->matches.size();
      return out.str();
    }
    for (std::size_t i = 0; i < range->matches.size(); ++i) {
      if (!(range->matches[i] == g->matches[i])) {
        std::ostringstream out;
        out << "series " << range->matches[i].series_id << " vs "
            << g->matches[i].series_id;
        return mismatch("range", i, out.str());
      }
    }
    return "";
  }
  if (const auto* knn = expected.knn()) {
    const auto* g = got.knn();
    if (g == nullptr) return "result kind differs from sequential baseline";
    if (knn->matches.size() != g->matches.size()) {
      std::ostringstream out;
      out << "knn match count: sequential " << knn->matches.size()
          << ", batch " << g->matches.size();
      return out.str();
    }
    for (std::size_t i = 0; i < knn->matches.size(); ++i) {
      const core::KnnMatch& e = knn->matches[i];
      const core::KnnMatch& b = g->matches[i];
      if (e.series_id != b.series_id ||
          e.transform_index != b.transform_index ||
          e.distance != b.distance) {
        std::ostringstream out;
        out << "series " << e.series_id << " vs " << b.series_id;
        return mismatch("knn", i, out.str());
      }
    }
    return "";
  }
  const auto* join = expected.join();
  const auto* g = got.join();
  if (join == nullptr || g == nullptr) {
    return "result kind differs from sequential baseline";
  }
  if (join->matches.size() != g->matches.size()) {
    std::ostringstream out;
    out << "join match count: sequential " << join->matches.size()
        << ", batch " << g->matches.size();
    return out.str();
  }
  for (std::size_t i = 0; i < join->matches.size(); ++i) {
    if (!(join->matches[i] == g->matches[i])) {
      std::ostringstream out;
      out << "(" << join->matches[i].a << "," << join->matches[i].b
          << ") vs (" << g->matches[i].a << "," << g->matches[i].b << ")";
      return mismatch("join", i, out.str());
    }
  }
  return "";
}

std::string DescribeStats(const core::QueryStats& stats) {
  std::ostringstream out;
  out << "{nodes " << stats.index_nodes_accessed << ", leaves "
      << stats.index_leaves_accessed << ", record pages "
      << stats.record_pages_read << ", candidates " << stats.candidates
      << ", verified " << stats.verified_candidates << ", comparisons "
      << stats.comparisons << ", traversals " << stats.traversals
      << ", output " << stats.output_size << "}";
  return out.str();
}

std::string DescribeGroup(const core::GroupRunStats& group) {
  std::ostringstream out;
  out << "{da_all " << group.da_all << ", da_leaf " << group.da_leaf
      << ", transforms " << group.transforms << ", candidates "
      << group.candidates << "}";
  return out.str();
}

// Byte-for-byte equality between a batch entry and its per-spec sequential
// baseline. No tolerance and no sorting: both ran at the same snapshot
// through the same deterministic executors, and ExecuteBatch's contract is
// that the entry equals Execute() in its matches (identical order, identical
// bits) and in its work: QueryStats, per-rectangle group_stats and the
// trace's DeterministicSignature().
std::string ExactDiff(const core::QueryResult& expected,
                      const core::QueryResult& got) {
  if (std::string diff = ExactMatchDiff(expected, got); !diff.empty()) {
    return diff;
  }
  if (!(expected.stats() == got.stats())) {
    return "stats: sequential " + DescribeStats(expected.stats()) +
           ", batch " + DescribeStats(got.stats());
  }
  if (expected.group_stats.size() != got.group_stats.size()) {
    return "group_stats size: sequential " +
           std::to_string(expected.group_stats.size()) + ", batch " +
           std::to_string(got.group_stats.size());
  }
  for (std::size_t g = 0; g < expected.group_stats.size(); ++g) {
    if (!(expected.group_stats[g] == got.group_stats[g])) {
      return "group_stats rect " + std::to_string(g) + ": sequential " +
             DescribeGroup(expected.group_stats[g]) + ", batch " +
             DescribeGroup(got.group_stats[g]);
    }
  }
  const std::string want = expected.trace().DeterministicSignature();
  const std::string have = got.trace().DeterministicSignature();
  if (want != have) {
    return "trace signature: sequential \"" + want + "\", batch \"" + have +
           "\"";
  }
  return "";
}

// The oracle's verdict for one spec, evaluated once and diffed against many
// batch entries.
struct OracleExpectation {
  std::vector<core::Match> range;
  std::vector<core::KnnMatch> knn;
  std::vector<core::JoinMatch> join;
  bool correlation_join = false;
};

OracleExpectation ExpectedFor(const Oracle& oracle,
                              const core::QuerySpec& spec,
                              const std::vector<bool>* live = nullptr) {
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
                       core::Algorithm algorithm, double tol) {
  if (const auto* range = got.range()) {
    return CompareRange(expected.range, range->matches, tol);
  }
  if (const auto* knn = got.knn()) {
    return CompareKnn(expected.knn, knn->matches, tol);
  }
  const bool subset_ok = expected.correlation_join &&
                         algorithm != core::Algorithm::kSequentialScan;
  return CompareJoin(expected.join, got.join()->matches, tol, subset_ok);
}

}  // namespace

DifferentialRunner::DifferentialRunner(std::uint64_t seed)
    : generator_(seed),
      engine_(WorkloadGenerator(seed).MakeSeries()),
      oracle_(engine_.dataset()) {}

CaseOutcome DifferentialRunner::RunCase(std::size_t index,
                                        const DiffConfig& config) {
  return Sweep(generator_.MakeCase(index, engine_, oracle_), config);
}

CaseOutcome DifferentialRunner::RunQueryTransformCase(
    std::size_t index, const DiffConfig& config) {
  CaseOutcome outcome = Sweep(
      generator_.MakeQueryTransformCase(index, engine_, oracle_), config);
  outcome.description += " [query transform]";
  return outcome;
}

CaseOutcome DifferentialRunner::Sweep(const WorkloadCase& work,
                                      const DiffConfig& config) {
  CaseOutcome outcome;
  outcome.description = work.description;

  // The oracle's verdict, computed once per case.
  std::vector<core::Match> expected_range;
  std::vector<core::KnnMatch> expected_knn;
  std::vector<core::JoinMatch> expected_join;
  bool correlation_join = false;
  if (const auto* range = std::get_if<core::RangeQuerySpec>(&work.spec)) {
    expected_range = oracle_.Range(*range);
  } else if (const auto* knn = std::get_if<core::KnnQuerySpec>(&work.spec)) {
    expected_knn = oracle_.Knn(*knn);
  } else {
    const auto& join = std::get<core::JoinQuerySpec>(work.spec);
    expected_join = oracle_.Join(join);
    correlation_join = join.mode == core::JoinMode::kCorrelation;
  }

  const auto check = [&](const core::QueryResult& result,
                         core::Algorithm algorithm) -> std::string {
    if (const auto* range = result.range()) {
      return CompareRange(expected_range, range->matches, config.tolerance);
    }
    if (const auto* knn = result.knn()) {
      return CompareKnn(expected_knn, knn->matches, config.tolerance);
    }
    const bool subset_ok =
        correlation_join && algorithm != core::Algorithm::kSequentialScan;
    return CompareJoin(expected_join, result.join()->matches,
                       config.tolerance, subset_ok);
  };

  const auto fail = [&](const std::string& what) {
    if (outcome.passed) {
      outcome.passed = false;
      outcome.failure = what;
    }
  };

  static constexpr core::Algorithm kAlgorithms[] = {
      core::Algorithm::kSequentialScan, core::Algorithm::kStIndex,
      core::Algorithm::kMtIndex, core::Algorithm::kAuto};
  static constexpr std::size_t kThreadCounts[] = {1, 4, 8};

  // Fault-free sweep over the whole configuration cube. kAuto rides along as
  // a fourth algorithm: whatever plan the planner picks, the results must
  // match the oracle, and — because the plan depends only on the spec and
  // the index, never on threads — every kAuto run of one case must carry
  // the same deterministic signature (same chosen plan included).
  std::string auto_signature;
  for (const core::Algorithm algorithm : kAlgorithms) {
    for (const std::size_t threads : kThreadCounts) {
      core::ExecOptions options;
      options.planner.algorithm = algorithm;
      options.num_threads = threads;
      const Result<core::QueryResult> result =
          engine_.Execute(work.spec, options);
      ++outcome.runs;
      if (!result.ok()) {
        fail("unexpected error status under " +
             DescribeConfig(algorithm, threads) + ": " +
             result.status().ToString());
        continue;
      }
      const std::string diff = check(*result, algorithm);
      if (!diff.empty()) {
        fail("divergence under " + DescribeConfig(algorithm, threads) + ": " +
             diff);
      }
      if (algorithm == core::Algorithm::kAuto) {
        const std::string signature =
            result->trace().DeterministicSignature();
        if (auto_signature.empty()) {
          auto_signature = signature;
        } else if (signature != auto_signature) {
          fail("kAuto signature varies with " +
               DescribeConfig(algorithm, threads) + ": got\n  " + signature +
               "\nexpected\n  " + auto_signature);
        }
      }
    }
  }
  if (!outcome.passed || !config.with_faults) return outcome;

  // Fault sweep: under every policy each run must either match the oracle
  // exactly or surface a non-OK Status — and a clean rerun right after must
  // match, proving the fault left the page-file state intact.
  const std::vector<FaultPolicyConfig> policies = [] {
    std::vector<FaultPolicyConfig> list;
    FaultPolicyConfig p;
    p.fail_nth_read = 1;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_nth_read = 5;
    p.failure_code = StatusCode::kCorruption;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_nth_read = 33;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_every_k = 7;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.corrupt_nth_read = 3;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.short_nth_read = 2;
    p.short_read_bytes = 512;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.delay_nanos = 2000;  // latency only: the run must *match*
    list.push_back(p);
    return list;
  }();

  struct FaultRunConfig {
    core::Algorithm algorithm;
    std::size_t threads;
  };
  static constexpr FaultRunConfig kFaultRuns[] = {
      {core::Algorithm::kMtIndex, 4},
      {core::Algorithm::kSequentialScan, 4},
  };

  for (const FaultPolicyConfig& policy_config : policies) {
    for (const FaultRunConfig& run : kFaultRuns) {
      core::ExecOptions options;
      options.planner.algorithm = run.algorithm;
      options.num_threads = run.threads;

      FaultPolicy policy(policy_config);
      engine_.SetReadFaultHook(&policy);
      const Result<core::QueryResult> faulted =
          engine_.Execute(work.spec, options);
      engine_.SetReadFaultHook(nullptr);
      ++outcome.fault_runs;
      const std::string config_text =
          DescribeConfig(run.algorithm, run.threads) + " under " +
          policy.Describe();
      if (!faulted.ok()) {
        ++outcome.fault_errors;
      } else {
        const std::string diff = check(*faulted, run.algorithm);
        if (!diff.empty()) {
          fail("fault run neither matched nor errored (" + config_text +
               "): " + diff);
        }
      }

      // Clean rerun: storage state must have survived the fault.
      const Result<core::QueryResult> clean =
          engine_.Execute(work.spec, options);
      if (!clean.ok()) {
        fail("clean rerun after " + config_text + " failed: " +
             clean.status().ToString());
      } else {
        const std::string diff = check(*clean, run.algorithm);
        if (!diff.empty()) {
          fail("clean rerun after " + config_text + " diverged: " + diff);
        }
      }
      if (!outcome.passed) return outcome;
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunMutateCase(std::size_t index,
                                              const MutateConfig& config) {
  // The dataset grows across mutate cases, so both the case's boundary-free
  // thresholds and the final check need oracles built against the *current*
  // state — the runner's construction-time oracle has stale spectra.
  const WorkloadCase work = [&] {
    const Oracle pre_oracle(engine_.dataset());
    return generator_.MakeCase(index, engine_, pre_oracle);
  }();
  CaseOutcome outcome;
  outcome.description = work.description + " [mutate]";
  const auto fail = [&](const std::string& what) {
    if (outcome.passed) {
      outcome.passed = false;
      outcome.failure = what;
    }
  };

  // Liveness at the starting version; the mutation log extends it to any
  // later version a query may pin.
  const std::uint64_t base_version = engine_.write_version();
  std::vector<bool> base_live(engine_.dataset().size());
  for (std::size_t i = 0; i < base_live.size(); ++i) {
    base_live[i] = !engine_.dataset().removed(i);
  }

  struct WriteOp {
    std::uint64_t version;  // engine write version after this op committed
    bool insert;
    std::size_t id;
  };
  std::vector<WriteOp> log;  // mutator-only until join(), then main-only
  log.reserve(config.inserts + config.removes);
  std::string mutator_failure;

  // The mutator: seeded random-walk inserts interleaved with removes of ids
  // it knows to be live (it is the only writer, so its view is exact). It
  // reads write_version() right after each commit — still exact, same
  // reason.
  std::thread mutator([&] {
    Rng rng(generator_.seed() * 0x9E3779B97F4A7C15ull + index);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < base_live.size(); ++i) {
      if (base_live[i]) live.push_back(i);
    }
    std::size_t inserts_left = config.inserts;
    std::size_t removes_left = config.removes;
    while (inserts_left + removes_left > 0) {
      const bool do_insert =
          removes_left == 0 || live.empty() ||
          (inserts_left > 0 && rng.Bernoulli(0.5));
      if (do_insert) {
        --inserts_left;
        const ts::Series series =
            ts::GenerateRandomWalk(engine_.length(), 500.0, rng);
        const Result<std::size_t> id = engine_.Insert(series);
        if (!id.ok()) {
          mutator_failure = "insert failed: " + id.status().ToString();
          return;
        }
        live.push_back(*id);
        log.push_back(WriteOp{engine_.write_version(), true, *id});
      } else {
        --removes_left;
        const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        const std::size_t id = live[pick];
        live.erase(live.begin() + pick);
        const Status removed = engine_.Remove(id);
        if (!removed.ok()) {
          mutator_failure = "remove failed: " + removed.ToString();
          return;
        }
        log.push_back(WriteOp{engine_.write_version(), false, id});
      }
      const std::uint64_t version = log.back().version;
      if (version != base_version + log.size()) {
        mutator_failure = "unexpected write version (another writer?)";
        return;
      }
      std::this_thread::yield();  // give queries a chance between commits
    }
  });

  // The concurrent query sweep. Two passes widen the window in which commits
  // can land between (and during) executions.
  static constexpr core::Algorithm kAlgorithms[] = {
      core::Algorithm::kSequentialScan, core::Algorithm::kStIndex,
      core::Algorithm::kMtIndex, core::Algorithm::kAuto};
  static constexpr std::size_t kThreadCounts[] = {1, 4};
  struct Recorded {
    core::Algorithm algorithm;
    std::size_t threads;
    core::QueryResult result;
  };
  std::vector<Recorded> recorded;
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::Algorithm algorithm : kAlgorithms) {
      for (const std::size_t threads : kThreadCounts) {
        core::ExecOptions options;
        options.planner.algorithm = algorithm;
        options.num_threads = threads;
        Result<core::QueryResult> result = engine_.Execute(work.spec, options);
        ++outcome.runs;
        if (!result.ok()) {
          fail("unexpected error status (no faults injected) under " +
               DescribeConfig(algorithm, threads) + ": " +
               result.status().ToString());
          continue;
        }
        recorded.push_back(Recorded{algorithm, threads, std::move(*result)});
      }
    }
  }

  mutator.join();
  outcome.writes = log.size();
  if (!mutator_failure.empty()) fail("mutator: " + mutator_failure);

  // Replay each recorded result at the snapshot it pinned: the oracle is
  // built over the final dataset (spectra exist for every id ever appended,
  // tombstoned or not) and the liveness mask comes from the version-ordered
  // mutation log.
  const Oracle post_oracle(engine_.dataset());
  const auto live_at = [&](std::uint64_t version) {
    std::vector<bool> live = base_live;
    live.resize(engine_.dataset().size(), false);
    for (const WriteOp& op : log) {
      if (op.version > version) break;
      live[op.id] = op.insert;
    }
    return live;
  };
  const auto* correlation_join = [&]() -> const core::JoinQuerySpec* {
    const auto* join = std::get_if<core::JoinQuerySpec>(&work.spec);
    return join != nullptr && join->mode == core::JoinMode::kCorrelation
               ? join
               : nullptr;
  }();
  for (const Recorded& run : recorded) {
    const std::uint64_t version = run.result.trace().snapshot_version;
    if (version < base_version || version > base_version + log.size()) {
      std::ostringstream out;
      out << "pinned snapshot v" << version << " outside [" << base_version
          << ", " << base_version + log.size() << "]";
      fail(out.str());
      continue;
    }
    const std::vector<bool> live = live_at(version);
    std::string diff;
    if (const auto* range = std::get_if<core::RangeQuerySpec>(&work.spec)) {
      diff = CompareRange(post_oracle.Range(*range, &live),
                          run.result.range()->matches, config.tolerance);
    } else if (const auto* knn = std::get_if<core::KnnQuerySpec>(&work.spec)) {
      diff = CompareKnn(post_oracle.Knn(*knn, &live),
                        run.result.knn()->matches, config.tolerance);
    } else {
      const auto& join = std::get<core::JoinQuerySpec>(work.spec);
      // Same subset rule as RunCase; kAuto counts as indexed because the
      // planner may have picked an index plan.
      const bool subset_ok =
          correlation_join != nullptr &&
          run.algorithm != core::Algorithm::kSequentialScan;
      diff = CompareJoin(post_oracle.Join(join, &live),
                         run.result.join()->matches, config.tolerance,
                         subset_ok);
    }
    if (!diff.empty()) {
      std::ostringstream out;
      out << "divergence at snapshot v" << version << " under "
          << DescribeConfig(run.algorithm, run.threads) << ": " << diff;
      fail(out.str());
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunBatchCase(std::size_t index,
                                             const BatchConfig& config) {
  CaseOutcome outcome;
  const auto fail = [&](const std::string& what) {
    if (outcome.passed) {
      outcome.passed = false;
      outcome.failure = what;
    }
  };

  // Assemble the batch: a few generated base specs (MakeCase cycles the
  // query kinds, so batches mix range / k-NN / join) plus seeded verbatim
  // duplicates of earlier entries. origin[i] names the base entry specs[i]
  // copies (origin[i] == i for base specs).
  Rng rng(generator_.seed() * 0x94D049BB133111EBull + index);
  const std::size_t base_count =
      config.min_specs +
      (config.max_specs > config.min_specs
           ? static_cast<std::size_t>(rng.UniformInt(
                 0, static_cast<std::int64_t>(config.max_specs -
                                              config.min_specs)))
           : 0);
  std::vector<core::QuerySpec> specs;
  std::vector<std::size_t> origin;
  std::ostringstream description;
  description << "batch{";
  for (std::size_t j = 0; j < base_count; ++j) {
    WorkloadCase work = generator_.MakeCase(index * 8 + j, engine_, oracle_);
    if (j > 0) description << "; ";
    description << work.description;
    origin.push_back(specs.size());
    specs.push_back(std::move(work.spec));
  }
  for (std::size_t j = 0; j < base_count; ++j) {
    if (rng.Bernoulli(config.duplicate_probability)) {
      origin.push_back(j);
      specs.push_back(specs[j]);
    }
  }
  description << "} +" << (specs.size() - base_count) << " dup";
  outcome.description = description.str();

  std::vector<OracleExpectation> expected;
  expected.reserve(base_count);
  for (std::size_t j = 0; j < base_count; ++j) {
    expected.push_back(ExpectedFor(oracle_, specs[j]));
  }

  static constexpr core::Algorithm kAlgorithms[] = {
      core::Algorithm::kSequentialScan, core::Algorithm::kStIndex,
      core::Algorithm::kMtIndex, core::Algorithm::kAuto};
  static constexpr std::size_t kThreadCounts[] = {1, 4, 8};

  // Per-algorithm sequential baselines: Execute() one spec at a time, check
  // each against the oracle, then hold the results as the exactness
  // reference for every batched configuration of that algorithm.
  std::vector<std::vector<core::QueryResult>> baselines(std::size(kAlgorithms));
  for (std::size_t a = 0; a < std::size(kAlgorithms); ++a) {
    const core::Algorithm algorithm = kAlgorithms[a];
    for (std::size_t i = 0; i < specs.size(); ++i) {
      core::ExecOptions options;
      options.planner.algorithm = algorithm;
      options.num_threads = 1;
      Result<core::QueryResult> result = engine_.Execute(specs[i], options);
      ++outcome.runs;
      if (!result.ok()) {
        fail("sequential baseline failed under " +
             DescribeConfig(algorithm, 1) + ": " +
             result.status().ToString());
        return outcome;
      }
      const std::string diff = OracleDiff(expected[origin[i]], *result,
                                          algorithm, config.tolerance);
      if (!diff.empty()) {
        fail("sequential baseline diverged from oracle under " +
             DescribeConfig(algorithm, 1) + ": " + diff);
      }
      baselines[a].push_back(std::move(*result));
    }
  }

  // The batched sweep: every entry — duplicates included, which execute
  // again — must match its sequential baseline byte-for-byte, and every
  // entry of one batch must pin the same snapshot version and report the
  // batch size.
  for (std::size_t a = 0; a < std::size(kAlgorithms) && outcome.passed; ++a) {
    const core::Algorithm algorithm = kAlgorithms[a];
    for (const std::size_t threads : kThreadCounts) {
      core::BatchOptions options;
      options.exec.planner.algorithm = algorithm;
      options.exec.num_threads = threads;
      const std::string config_text = DescribeConfig(algorithm, threads);
      const std::vector<Result<core::QueryResult>> batch =
          engine_.ExecuteBatch(specs, options);
      ++outcome.runs;
      if (batch.size() != specs.size()) {
        fail("batch returned " + std::to_string(batch.size()) +
             " results for " + std::to_string(specs.size()) + " specs (" +
             config_text + ")");
        break;
      }
      std::uint64_t version = 0;
      for (std::size_t i = 0; i < batch.size() && outcome.passed; ++i) {
        if (!batch[i].ok()) {
          fail("batch entry " + std::to_string(i) + " errored (" +
               config_text + "): " + batch[i].status().ToString());
          break;
        }
        const core::QueryResult& result = *batch[i];
        const std::string diff = ExactDiff(baselines[a][i], result);
        if (!diff.empty()) {
          fail("batch entry " + std::to_string(i) + " (" + config_text +
               "): " + diff);
        } else if (result.trace().batch_size != specs.size()) {
          fail("batch entry " + std::to_string(i) + " reports batch_size " +
               std::to_string(result.trace().batch_size) + " for a " +
               std::to_string(specs.size()) + "-spec batch (" + config_text +
               ")");
        } else if (i == 0) {
          version = result.trace().snapshot_version;
        } else if (result.trace().snapshot_version != version) {
          fail("batch pinned two snapshot versions (" + config_text +
               "): v" + std::to_string(version) + " and v" +
               std::to_string(result.trace().snapshot_version));
        }
      }
      if (!outcome.passed) break;
    }
  }
  if (!outcome.passed || !config.with_faults) return outcome;

  // Fault sweep: under each policy every batch entry must either surface a
  // non-OK Status or carry the exact fault-free result. Every entry does its
  // own reads, so a faulted read fails the one entry that made it: a policy
  // faulting m single reads (fail-nth, corrupt-nth, short-nth) may fail at
  // most m entries, and a latency-only policy none. A clean rerun right
  // after must fully match: the fault left storage state intact.
  const std::vector<FaultPolicyConfig> policies = [] {
    std::vector<FaultPolicyConfig> list;
    FaultPolicyConfig p;
    p.fail_nth_read = 1;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_nth_read = 5;
    p.failure_code = StatusCode::kCorruption;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_nth_read = 33;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.fail_every_k = 7;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.corrupt_nth_read = 3;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.short_nth_read = 2;
    p.short_read_bytes = 512;
    list.push_back(p);
    p = FaultPolicyConfig();
    p.delay_nanos = 2000;  // latency only: every entry must *match*
    list.push_back(p);
    return list;
  }();

  struct FaultRunConfig {
    std::size_t algorithm_index;  // into kAlgorithms / baselines
    std::size_t threads;
  };
  static constexpr FaultRunConfig kFaultRuns[] = {
      {2, 4},  // MT-index: index pages, then the bound's fetches
      {0, 4},  // sequential scan: every record page
  };

  for (const FaultPolicyConfig& policy_config : policies) {
    // fail-every-k faults without limit; the others fault one read each.
    const bool periodic = policy_config.fail_every_k != 0;
    const std::size_t faulted_reads = (policy_config.fail_nth_read != 0) +
                                      (policy_config.corrupt_nth_read != 0) +
                                      (policy_config.short_nth_read != 0);
    for (const FaultRunConfig& run : kFaultRuns) {
      const core::Algorithm algorithm = kAlgorithms[run.algorithm_index];
      core::BatchOptions options;
      options.exec.planner.algorithm = algorithm;
      options.exec.num_threads = run.threads;

      FaultPolicy policy(policy_config);
      engine_.SetReadFaultHook(&policy);
      const std::vector<Result<core::QueryResult>> faulted =
          engine_.ExecuteBatch(specs, options);
      engine_.SetReadFaultHook(nullptr);
      ++outcome.fault_runs;
      const std::string config_text =
          DescribeConfig(algorithm, run.threads) + " under " +
          policy.Describe();
      if (faulted.size() != specs.size()) {
        fail("faulted batch returned " + std::to_string(faulted.size()) +
             " results for " + std::to_string(specs.size()) + " specs (" +
             config_text + ")");
      }
      std::size_t errored = 0;
      for (std::size_t i = 0; i < faulted.size() && outcome.passed; ++i) {
        if (!faulted[i].ok()) {
          ++errored;
          continue;
        }
        const std::string diff =
            ExactDiff(baselines[run.algorithm_index][i], *faulted[i]);
        if (!diff.empty()) {
          fail("fault batch entry " + std::to_string(i) +
               " neither matched nor errored (" + config_text + "): " + diff);
        }
      }
      outcome.fault_errors += errored;
      if (!periodic && errored > faulted_reads) {
        fail(std::to_string(errored) + " batch entries errored (" +
             config_text + "), but the policy faults " +
             std::to_string(faulted_reads) + " read(s)");
      }

      // Clean rerun: the whole batch must come back exact.
      const std::vector<Result<core::QueryResult>> clean =
          engine_.ExecuteBatch(specs, options);
      for (std::size_t i = 0; i < clean.size() && outcome.passed; ++i) {
        if (!clean[i].ok()) {
          fail("clean batch rerun after " + config_text + " entry " +
               std::to_string(i) + " failed: " + clean[i].status().ToString());
          break;
        }
        const std::string diff =
            ExactDiff(baselines[run.algorithm_index][i], *clean[i]);
        if (!diff.empty()) {
          fail("clean batch rerun after " + config_text + " diverged at entry " +
               std::to_string(i) + ": " + diff);
        }
      }
      if (!outcome.passed) return outcome;
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunBatchMutateCase(std::size_t index,
                                                   const BatchConfig& config) {
  // Batch assembly against the *current* dataset state (the runner's
  // construction-time oracle has stale spectra once mutate cases ran).
  const Oracle pre_oracle(engine_.dataset());
  Rng rng(generator_.seed() * 0xBF58476D1CE4E5B9ull + index);
  const std::size_t base_count =
      config.min_specs +
      (config.max_specs > config.min_specs
           ? static_cast<std::size_t>(rng.UniformInt(
                 0, static_cast<std::int64_t>(config.max_specs -
                                              config.min_specs)))
           : 0);
  std::vector<core::QuerySpec> specs;
  std::vector<std::size_t> origin;
  std::ostringstream description;
  description << "batch{";
  for (std::size_t j = 0; j < base_count; ++j) {
    WorkloadCase work = generator_.MakeCase(index * 8 + j, engine_, pre_oracle);
    if (j > 0) description << "; ";
    description << work.description;
    origin.push_back(specs.size());
    specs.push_back(std::move(work.spec));
  }
  for (std::size_t j = 0; j < base_count; ++j) {
    if (rng.Bernoulli(config.duplicate_probability)) {
      origin.push_back(j);
      specs.push_back(specs[j]);
    }
  }
  description << "} +" << (specs.size() - base_count) << " dup [mutate]";

  CaseOutcome outcome;
  outcome.description = description.str();
  const auto fail = [&](const std::string& what) {
    if (outcome.passed) {
      outcome.passed = false;
      outcome.failure = what;
    }
  };

  const std::uint64_t base_version = engine_.write_version();
  std::vector<bool> base_live(engine_.dataset().size());
  for (std::size_t i = 0; i < base_live.size(); ++i) {
    base_live[i] = !engine_.dataset().removed(i);
  }

  struct WriteOp {
    std::uint64_t version;
    bool insert;
    std::size_t id;
  };
  std::vector<WriteOp> log;  // mutator-only until join(), then main-only
  log.reserve(config.inserts + config.removes);
  std::string mutator_failure;

  std::thread mutator([&] {
    Rng mutator_rng(generator_.seed() * 0x2545F4914F6CDD1Dull + index);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < base_live.size(); ++i) {
      if (base_live[i]) live.push_back(i);
    }
    std::size_t inserts_left = config.inserts;
    std::size_t removes_left = config.removes;
    while (inserts_left + removes_left > 0) {
      const bool do_insert =
          removes_left == 0 || live.empty() ||
          (inserts_left > 0 && mutator_rng.Bernoulli(0.5));
      if (do_insert) {
        --inserts_left;
        const ts::Series series =
            ts::GenerateRandomWalk(engine_.length(), 500.0, mutator_rng);
        const Result<std::size_t> id = engine_.Insert(series);
        if (!id.ok()) {
          mutator_failure = "insert failed: " + id.status().ToString();
          return;
        }
        live.push_back(*id);
        log.push_back(WriteOp{engine_.write_version(), true, *id});
      } else {
        --removes_left;
        const std::size_t pick =
            static_cast<std::size_t>(mutator_rng.UniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
        const std::size_t id = live[pick];
        live.erase(live.begin() + pick);
        const Status removed = engine_.Remove(id);
        if (!removed.ok()) {
          mutator_failure = "remove failed: " + removed.ToString();
          return;
        }
        log.push_back(WriteOp{engine_.write_version(), false, id});
      }
      if (log.back().version != base_version + log.size()) {
        mutator_failure = "unexpected write version (another writer?)";
        return;
      }
      std::this_thread::yield();
    }
  });

  // The concurrent batch sweep. Each batch must pin exactly ONE snapshot for
  // all of its entries, and — since this thread is the only issuer — pinned
  // versions must never go backwards.
  static constexpr core::Algorithm kAlgorithms[] = {
      core::Algorithm::kSequentialScan, core::Algorithm::kStIndex,
      core::Algorithm::kMtIndex, core::Algorithm::kAuto};
  static constexpr std::size_t kThreadCounts[] = {1, 4};
  struct RecordedBatch {
    core::Algorithm algorithm = core::Algorithm::kAuto;
    std::size_t threads = 0;
    std::uint64_t version = 0;
    std::vector<core::QueryResult> results;
  };
  std::vector<RecordedBatch> recorded;
  std::uint64_t last_version = 0;
  for (const core::Algorithm algorithm : kAlgorithms) {
    for (const std::size_t threads : kThreadCounts) {
      core::BatchOptions options;
      options.exec.planner.algorithm = algorithm;
      options.exec.num_threads = threads;
      std::vector<Result<core::QueryResult>> batch =
          engine_.ExecuteBatch(specs, options);
      ++outcome.runs;
      const std::string config_text = DescribeConfig(algorithm, threads);
      if (batch.size() != specs.size()) {
        fail("batch returned " + std::to_string(batch.size()) +
             " results for " + std::to_string(specs.size()) + " specs (" +
             config_text + ")");
        continue;
      }
      RecordedBatch rec;
      rec.algorithm = algorithm;
      rec.threads = threads;
      bool usable = true;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!batch[i].ok()) {
          fail("unexpected error status (no faults injected) entry " +
               std::to_string(i) + " under " + config_text + ": " +
               batch[i].status().ToString());
          usable = false;
          break;
        }
        const std::uint64_t version = batch[i]->trace().snapshot_version;
        if (i == 0) {
          rec.version = version;
        } else if (version != rec.version) {
          fail("batch pinned two snapshot versions under " + config_text +
               ": v" + std::to_string(rec.version) + " and v" +
               std::to_string(version));
          usable = false;
          break;
        }
        rec.results.push_back(std::move(*batch[i]));
      }
      if (!usable) continue;
      if (rec.version < last_version) {
        fail("batch snapshot went backwards under " + config_text + ": v" +
             std::to_string(rec.version) + " after v" +
             std::to_string(last_version));
      }
      last_version = rec.version;
      // Duplicates execute again at the same pinned snapshot as their
      // original, so they must be identical to it.
      for (std::size_t i = 0; i < rec.results.size(); ++i) {
        if (origin[i] == i) continue;
        const std::string diff =
            ExactDiff(rec.results[origin[i]], rec.results[i]);
        if (!diff.empty()) {
          fail("duplicate entry " + std::to_string(i) +
               " diverged from its original under " + config_text + ": " +
               diff);
        }
      }
      recorded.push_back(std::move(rec));
    }
  }

  mutator.join();
  outcome.writes = log.size();
  if (!mutator_failure.empty()) fail("mutator: " + mutator_failure);

  // Replay each batch against the oracle at the snapshot it pinned. The
  // expectation for one (base spec, version) pair is memoized: duplicates
  // share it, and every batch issued after the mutator drained pins the
  // same final version.
  const Oracle post_oracle(engine_.dataset());
  const auto live_at = [&](std::uint64_t version) {
    std::vector<bool> live = base_live;
    live.resize(engine_.dataset().size(), false);
    for (const WriteOp& op : log) {
      if (op.version > version) break;
      live[op.id] = op.insert;
    }
    return live;
  };
  std::map<std::pair<std::size_t, std::uint64_t>, OracleExpectation> memo;
  for (const RecordedBatch& run : recorded) {
    if (run.version < base_version ||
        run.version > base_version + log.size()) {
      std::ostringstream out;
      out << "pinned snapshot v" << run.version << " outside ["
          << base_version << ", " << base_version + log.size() << "]";
      fail(out.str());
      continue;
    }
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      const std::pair<std::size_t, std::uint64_t> key(origin[i], run.version);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const std::vector<bool> live = live_at(run.version);
        it = memo.emplace(key, ExpectedFor(post_oracle, specs[origin[i]],
                                           &live))
                 .first;
      }
      const std::string diff = OracleDiff(it->second, run.results[i],
                                          run.algorithm, config.tolerance);
      if (!diff.empty()) {
        std::ostringstream out;
        out << "entry " << i << " divergence at snapshot v" << run.version
            << " under " << DescribeConfig(run.algorithm, run.threads) << ": "
            << diff;
        fail(out.str());
      }
    }
  }
  return outcome;
}

CaseOutcome DifferentialRunner::RunCheckpointCase(
    std::size_t index, const CheckpointConfig& config) {
  const WorkloadCase work = [&] {
    const Oracle pre_oracle(engine_.dataset());
    return generator_.MakeCase(index, engine_, pre_oracle);
  }();
  CaseOutcome outcome;
  outcome.description = work.description + " [checkpoint]";
  const auto fail = [&](const std::string& what) {
    if (outcome.passed) {
      outcome.passed = false;
      outcome.failure = what;
    }
  };
  const std::string prefix = config.prefix + "." + std::to_string(index);

  // Baseline checkpoint: the "old" durable state every pre-commit crash
  // must fall back to.
  if (const Status saved = engine_.SaveTo(prefix); !saved.ok()) {
    fail("baseline SaveTo failed: " + saved.ToString());
    return outcome;
  }
  const std::uint64_t old_epoch = engine_.checkpoint_epoch();
  std::vector<bool> old_live(engine_.dataset().size());
  for (std::size_t i = 0; i < old_live.size(); ++i) {
    old_live[i] = !engine_.dataset().removed(i);
  }

  // Advance the engine past the baseline so old and new answers differ —
  // a recovery that silently serves the wrong state must show up as a
  // divergence, not a coincidence.
  {
    Rng rng(generator_.seed() * 0xD1B54A32D192ED03ull + index);
    std::vector<std::size_t> live_ids;
    for (std::size_t i = 0; i < old_live.size(); ++i) {
      if (old_live[i]) live_ids.push_back(i);
    }
    for (std::size_t n = 0; n < config.inserts; ++n) {
      const ts::Series series =
          ts::GenerateRandomWalk(engine_.length(), 500.0, rng);
      const Result<std::size_t> id = engine_.Insert(series);
      if (!id.ok()) {
        fail("insert failed: " + id.status().ToString());
        return outcome;
      }
      live_ids.push_back(*id);
      ++outcome.writes;
    }
    for (std::size_t n = 0; n < config.removes && !live_ids.empty(); ++n) {
      const std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live_ids.size()) - 1));
      const std::size_t id = live_ids[pick];
      live_ids.erase(live_ids.begin() + pick);
      if (const Status removed = engine_.Remove(id); !removed.ok()) {
        fail("remove failed: " + removed.ToString());
        return outcome;
      }
      ++outcome.writes;
    }
  }
  std::vector<bool> new_live(engine_.dataset().size());
  for (std::size_t i = 0; i < new_live.size(); ++i) {
    new_live[i] = !engine_.dataset().removed(i);
  }

  // One oracle over the final dataset serves both states: the liveness mask
  // replays either snapshot (ids past the mask count as dead, so the old
  // mask works against the grown dataset).
  const Oracle post_oracle(engine_.dataset());
  const auto* correlation_join = [&]() -> const core::JoinQuerySpec* {
    const auto* join = std::get_if<core::JoinQuerySpec>(&work.spec);
    return join != nullptr && join->mode == core::JoinMode::kCorrelation
               ? join
               : nullptr;
  }();

  // Queries the recovered engine and diffs it against the oracle at `live`.
  const auto check_loaded = [&](core::SimilarityEngine& loaded,
                                const std::vector<bool>& live,
                                const std::string& context) {
    static constexpr core::Algorithm kLoadedAlgorithms[] = {
        core::Algorithm::kSequentialScan, core::Algorithm::kAuto};
    for (const core::Algorithm algorithm : kLoadedAlgorithms) {
      core::ExecOptions options;
      options.planner.algorithm = algorithm;
      const Result<core::QueryResult> result =
          loaded.Execute(work.spec, options);
      ++outcome.runs;
      if (!result.ok()) {
        fail(context + ": query on recovered engine failed under " +
             DescribeConfig(algorithm, 1) + ": " +
             result.status().ToString());
        return;
      }
      std::string diff;
      if (const auto* range = std::get_if<core::RangeQuerySpec>(&work.spec)) {
        diff = CompareRange(post_oracle.Range(*range, &live),
                            result->range()->matches, config.tolerance);
      } else if (const auto* knn =
                     std::get_if<core::KnnQuerySpec>(&work.spec)) {
        diff = CompareKnn(post_oracle.Knn(*knn, &live),
                          result->knn()->matches, config.tolerance);
      } else {
        const auto& join = std::get<core::JoinQuerySpec>(work.spec);
        const bool subset_ok = correlation_join != nullptr &&
                               algorithm != core::Algorithm::kSequentialScan;
        diff = CompareJoin(post_oracle.Join(join, &live),
                           result->join()->matches, config.tolerance,
                           subset_ok);
      }
      if (!diff.empty()) {
        fail(context + ": recovered engine diverged under " +
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
    const Status saved = engine_.SaveTo(prefix);
    engine_.SetCheckpointFaultHook(nullptr);
    if (saved.ok()) {
      // k exceeded the save's step count: the save committed normally and
      // recovery must see exactly the new state.
      Result<std::unique_ptr<core::SimilarityEngine>> loaded =
          core::SimilarityEngine::LoadFrom(prefix);
      if (!loaded.ok()) {
        fail("load after completed save failed: " +
             loaded.status().ToString());
      } else {
        check_loaded(**loaded, new_live, "after completed save");
      }
      break;
    }
    ++outcome.fault_runs;
    ++outcome.fault_errors;
    const std::string context = "crash at step " + std::to_string(k) + " (" +
                                policy.crashed_step() + ")";
    Result<std::unique_ptr<core::SimilarityEngine>> loaded =
        core::SimilarityEngine::LoadFrom(prefix);
    if (!loaded.ok()) {
      fail(context +
           ": recovery load failed: " + loaded.status().ToString());
      return outcome;
    }
    // The manifest epoch decides which committed state recovery landed on;
    // anything but "the baseline" or "the new checkpoint" is data loss.
    const std::uint64_t epoch = (*loaded)->checkpoint_epoch();
    if (epoch == old_epoch) {
      check_loaded(**loaded, old_live, context + ", recovered old epoch");
    } else if (epoch > old_epoch) {
      check_loaded(**loaded, new_live, context + ", recovered new epoch");
    } else {
      fail(context + ": recovered epoch " + std::to_string(epoch) +
           " older than baseline " + std::to_string(old_epoch));
    }
    if (!outcome.passed) return outcome;
    if (k > 10000) {
      fail("crash sweep did not terminate: SaveTo never ran out of steps");
      return outcome;
    }
  }
  return outcome;
}

}  // namespace tsq::testing
