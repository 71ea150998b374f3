#ifndef TSQ_TESTING_DIFFERENTIAL_H_
#define TSQ_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "testing/oracle.h"
#include "testing/workload_generator.h"

namespace tsq::testing {

/// The knobs of every DifferentialRunner mode. Everything else a mode does
/// (writes per case, batch sizes, fault schedules) is fixed, so a seed and a
/// case index name one case.
struct DiffConfig {
  /// Also run the fault sweep of RunCase, RunQueryTransformCase and
  /// RunBatchCase: under every FaultPolicy each run must either return the
  /// exact fault-free result or a non-OK Status, and a clean rerun
  /// afterwards must still match (storage state intact). The mutate and
  /// checkpoint modes inject no read faults and ignore it.
  bool with_faults = true;
  /// Relative tolerance for comparing distances / correlations against the
  /// oracle; match membership itself is exact (thresholds are boundary-free
  /// by construction).
  double tolerance = 1e-6;
};

/// The oracle's answer to one spec, evaluated once and diffed against any
/// number of engine results. Only the vector of the spec's kind is filled.
struct OracleExpectation {
  std::vector<core::Match> range;
  std::vector<core::KnnMatch> knn;
  std::vector<core::JoinMatch> join;
  bool correlation_join = false;
};

/// Evaluates `spec` with `oracle`. `live`, when non-null, is the liveness
/// mask of the snapshot to evaluate at (see Oracle::Range).
OracleExpectation ExpectedFor(const Oracle& oracle, const core::QuerySpec& spec,
                              const std::vector<bool>* live = nullptr);

/// The first difference between `got` and the oracle's answer, or "" when
/// they agree: the same range (series, transformation) set, the same k-NN
/// series in rank order, the same join pairs, with distances and
/// correlations within `tolerance`. An indexed correlation join (any
/// `algorithm` but the sequential scan; kAuto counts as indexed) may return
/// a subset of the oracle's pairs, the documented filter property, but
/// every pair it returns must be an oracle pair.
std::string OracleDiff(const OracleExpectation& expected,
                       const core::QueryResult& got,
                       core::Algorithm algorithm, double tolerance);

/// The first difference between two results of one spec at one snapshot, or
/// "" when they are byte-identical: the matches in order and bit for bit,
/// the QueryStats, the per-rectangle group_stats and the trace's
/// DeterministicSignature(). This is the contract between a batch entry and
/// its solo Execute(), and between any two thread counts.
std::string ExactDiff(const core::QueryResult& expected,
                      const core::QueryResult& got);

/// Outcome of one case's sweep.
struct CaseOutcome {
  bool passed = true;
  /// Engine executions compared against the oracle.
  std::size_t runs = 0;
  /// Executions performed with a fault policy installed (checkpoint mode:
  /// crash points swept).
  std::size_t fault_runs = 0;
  /// Of those, how many surfaced a non-OK Status (the rest matched).
  std::size_t fault_errors = 0;
  /// Writes the case committed (mutate and checkpoint modes).
  std::size_t writes = 0;
  /// First divergence, self-contained enough to debug from ("config=...,
  /// expected N matches, got M, first diff ...").
  std::string failure;
  std::string description;  // the generated case

  /// Fails the case with `what`, unless it already failed.
  void Fail(const std::string& what);
};

/// Runs generated cases through the full configuration cube
/// {scan, ST-index, MT-index, auto} x {1, 4, 8} threads and checks every
/// result against the Oracle and against the other runs of its algorithm;
/// optionally repeats a slice of the cube under each FaultPolicy. One runner
/// per seed: it owns the seed's engine, whose dataset the mutate and
/// checkpoint modes grow case over case. Every case builds its Oracle over
/// the dataset as it stands, so the modes may follow one another on one
/// runner. Every mode takes the same DiffConfig.
class DifferentialRunner {
 public:
  explicit DifferentialRunner(std::uint64_t seed);

  /// Sweeps WorkloadGenerator::MakeCase(index), 16 engine runs: each
  /// algorithm at 1, 4 and 8 threads, then at 1 thread again under the other
  /// kernel ISA (scalar when AVX2 is active, else the best supported one;
  /// the active ISA is restored afterwards). Every run must match the
  /// Oracle, and each algorithm's runs must be ExactDiff-identical to its
  /// first 1-thread run: the determinism contract across thread counts and
  /// kernel ISAs. With faults, then repeats a slice of the cube under each
  /// FaultPolicy: every run errors or matches, and a clean rerun matches.
  CaseOutcome RunCase(std::size_t index, const DiffConfig& config = DiffConfig());

  /// RunCase's sweep over WorkloadGenerator::MakeQueryTransformCase(index):
  /// a range or k-NN query with a fixed query transformation.
  CaseOutcome RunQueryTransformCase(std::size_t index,
                                    const DiffConfig& config = DiffConfig());

  /// Concurrency-differential case: runs the case's query twice through
  /// {scan, ST, MT, auto} x {1, 4} threads on the main thread while a seeded
  /// writer thread commits 5 inserts and 4 removes. Each result is checked
  /// against the Oracle evaluated at the snapshot version the query pinned
  /// (reconstructed from the write log), so any torn read — a query seeing
  /// an appended record without its index entry, a half-condensed tree, a
  /// stale cached plan — shows up as a divergence. Pinned versions must lie
  /// within the case's writes and, as the queries run one after another,
  /// never go backwards. RunCase's exact checks between runs do not apply
  /// here: plans and counts legitimately change across write epochs.
  /// Mutations persist into later cases (the dataset grows), which is
  /// deliberate — successive cases run against successively mutated states.
  CaseOutcome RunMutateCase(std::size_t index,
                            const DiffConfig& config = DiffConfig());

  /// Batched-execution differential case. Builds a batch of 3–5 generated
  /// specs (mixed range / k-NN / join kinds) plus seeded verbatim duplicates
  /// and sweeps ExecuteBatch over {scan, ST, MT, auto} x {1, 4, 8} threads,
  /// holding every entry — duplicates included — to ExactDiff against the
  /// per-spec sequential Execute() at the same algorithm, whose results are
  /// themselves checked against the Oracle. Every batch entry must report
  /// the batch size and the same pinned snapshot version. With faults,
  /// repeats a slice under each FaultPolicy: every entry errors or is
  /// exact, a policy that faults m single reads fails at most m entries, and
  /// a clean rerun must match.
  CaseOutcome RunBatchCase(std::size_t index,
                           const DiffConfig& config = DiffConfig());

  /// Concurrency variant of RunBatchCase: a seeded writer thread commits 4
  /// inserts and 3 removes while the main thread issues one batch per
  /// configuration of {scan, ST, MT, auto} x {1, 4} threads. All entries of
  /// one batch must pin ONE snapshot version, successive batches must pin
  /// non-decreasing versions, duplicates must equal their in-batch original
  /// (ExactDiff), and every entry is checked against the Oracle replayed at
  /// the batch's pinned version via the write log. Mutations persist into
  /// later cases.
  CaseOutcome RunBatchMutateCase(std::size_t index,
                                 const DiffConfig& config = DiffConfig());

  /// Crash-recovery differential case. Writes a baseline checkpoint under
  /// `prefix` + "." + index, commits 3 inserts and 2 removes, then for
  /// k = 1, 2, ... reruns SaveTo with a CrashPolicy that aborts the save at
  /// its k-th write step — every torn on-disk state a crash could leave.
  /// After each aborted save, SimilarityEngine::LoadFrom must succeed, and
  /// the loaded engine must answer the case's query exactly as the oracle
  /// evaluated at the state the recovered checkpoint claims (its manifest
  /// epoch decides: the pre-write baseline or the post-write state — never
  /// a mix, never a third answer). The sweep ends at the first k past the
  /// save's step count, where SaveTo completes and the final load must see
  /// the new state. In the outcome, fault_runs counts crash points swept and
  /// fault_errors the aborted saves (they are equal when all crashes fired).
  CaseOutcome RunCheckpointCase(std::size_t index, const std::string& prefix,
                                const DiffConfig& config = DiffConfig());

 private:
  // The configuration cube and fault sweep of one generated case.
  CaseOutcome Sweep(const WorkloadCase& work, const Oracle& oracle,
                    const DiffConfig& config);

  WorkloadGenerator generator_;
  core::SimilarityEngine engine_;
};

}  // namespace tsq::testing

#endif  // TSQ_TESTING_DIFFERENTIAL_H_
