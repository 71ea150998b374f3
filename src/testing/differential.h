#ifndef TSQ_TESTING_DIFFERENTIAL_H_
#define TSQ_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "testing/oracle.h"
#include "testing/workload_generator.h"

namespace tsq::testing {

/// Knobs of one differential sweep.
struct DiffConfig {
  /// Also run the fault sweep: under every FaultPolicy the engine must
  /// either return the exact fault-free result or a non-OK Status, and a
  /// clean rerun afterwards must still match (storage state intact).
  bool with_faults = true;
  /// Relative tolerance for comparing distances / correlations; match
  /// membership itself is exact (thresholds are boundary-free by
  /// construction).
  double tolerance = 1e-6;
};

/// Knobs of one mutate-mode case (RunMutateCase): a seeded mutator thread
/// commits Insert/Remove operations while the main thread sweeps the query
/// configurations, and every result is checked against an oracle evaluated
/// at the snapshot version the query pinned.
struct MutateConfig {
  double tolerance = 1e-6;
  /// Writes the mutator thread commits while the sweep runs.
  std::size_t inserts = 5;
  std::size_t removes = 4;
};

/// Knobs of one batched-execution case (RunBatchCase / RunBatchMutateCase).
struct BatchConfig {
  double tolerance = 1e-6;
  /// Also repeat a slice of the sweep under each FaultPolicy (RunBatchCase
  /// only): every batch entry must either surface a non-OK Status or carry
  /// the exact fault-free result, no more entries may error than the policy
  /// faults single reads (unless it faults every k-th read), and a clean
  /// rerun must fully match.
  bool with_faults = true;
  /// Distinct generated specs per batch; the case RNG picks a count in
  /// [min_specs, max_specs].
  std::size_t min_specs = 3;
  std::size_t max_specs = 5;
  /// Per-base-spec chance of re-enqueueing it verbatim later in the batch;
  /// a duplicate executes again and must equal its original.
  double duplicate_probability = 0.4;
  /// Writes the mutator thread commits (RunBatchMutateCase only).
  std::size_t inserts = 4;
  std::size_t removes = 3;
};

/// Knobs of one checkpoint crash-recovery case (RunCheckpointCase).
struct CheckpointConfig {
  double tolerance = 1e-6;
  /// Filesystem prefix for the case's checkpoint files (e.g.
  /// "/tmp/tsq_fuzz/ckpt"); the case index is appended so successive cases
  /// never share a manifest. Required.
  std::string prefix;
  /// Writes committed between the baseline checkpoint and the crashing
  /// saves, so the old and new durable states genuinely differ.
  std::size_t inserts = 3;
  std::size_t removes = 2;
};

/// Outcome of one case's sweep.
struct CaseOutcome {
  bool passed = true;
  /// Engine executions compared against the oracle.
  std::size_t runs = 0;
  /// Executions performed with a fault policy installed.
  std::size_t fault_runs = 0;
  /// Of those, how many surfaced a non-OK Status (the rest matched).
  std::size_t fault_errors = 0;
  /// Writes the mutator thread committed (mutate mode only).
  std::size_t writes = 0;
  /// First divergence, self-contained enough to debug from ("config=...,
  /// expected N matches, got M, first diff ...").
  std::string failure;
  std::string description;  // the generated case
};

/// Runs generated cases through the full configuration cube
/// {scan, ST-index, MT-index, auto} x {1, 4, 8} threads and checks every
/// result against the Oracle; optionally repeats a slice
/// of the cube under each FaultPolicy. One runner per seed: it owns the
/// seed's dataset, engine and oracle.
class DifferentialRunner {
 public:
  explicit DifferentialRunner(std::uint64_t seed);

  CaseOutcome RunCase(std::size_t index, const DiffConfig& config = DiffConfig());

  /// RunCase's sweep over WorkloadGenerator::MakeQueryTransformCase(index):
  /// a range or k-NN query with a fixed query transformation.
  CaseOutcome RunQueryTransformCase(std::size_t index,
                                    const DiffConfig& config = DiffConfig());

  /// Concurrency-differential case: runs the case's query through
  /// {scan, ST, MT, auto} x {1, 4} threads on the main thread while a seeded
  /// mutator thread interleaves Insert/Remove commits. Each result is checked
  /// against the Oracle evaluated at the snapshot version the query pinned
  /// (reconstructed from the mutation log), so any torn read — a query seeing
  /// an appended record without its index entry, a half-condensed tree, a
  /// stale cached plan — shows up as a divergence. The kAuto
  /// signature-stability check of RunCase does not apply here: plans
  /// legitimately change across write epochs. Mutations persist into later
  /// cases (the dataset grows), which is deliberate — successive cases run
  /// against successively mutated states.
  CaseOutcome RunMutateCase(std::size_t index,
                            const MutateConfig& config = MutateConfig());

  /// Batched-execution differential case. Builds a batch of generated specs
  /// (mixed range / k-NN / join kinds, plus seeded verbatim duplicates) and
  /// sweeps ExecuteBatch over {scan, ST, MT, auto} x {1, 4, 8} threads,
  /// diffing every entry — duplicates included — byte-for-byte against the
  /// per-spec sequential Execute() at the same configuration (matches,
  /// QueryStats, group_stats and trace signature, the batch executor's
  /// exactness contract), whose results are themselves checked against the
  /// Oracle. Every batch entry must report the batch size and the same
  /// pinned snapshot version. Optionally repeats a slice under each
  /// FaultPolicy (error-or-exact per entry, one faulted read fails at most
  /// one entry, clean rerun must match).
  CaseOutcome RunBatchCase(std::size_t index,
                           const BatchConfig& config = BatchConfig());

  /// Concurrency variant of RunBatchCase: a seeded mutator thread commits
  /// Insert/Remove operations while the main thread issues one batch per
  /// configuration of {scan, ST, MT, auto} x {1, 4} threads. All entries of
  /// one batch must pin ONE snapshot version, successive batches must pin
  /// non-decreasing versions, duplicates must equal their in-batch
  /// original, and every entry is checked against the Oracle replayed at
  /// the batch's pinned version via the mutation log. Mutations persist
  /// into later cases.
  CaseOutcome RunBatchMutateCase(std::size_t index,
                                 const BatchConfig& config = BatchConfig());

  /// Crash-recovery differential case. Writes a baseline checkpoint, commits
  /// a few Insert/Remove operations, then for k = 1, 2, ... reruns SaveTo
  /// with a CrashPolicy that aborts the save at its k-th write step — every
  /// torn on-disk state a crash could leave. After each aborted save,
  /// SimilarityEngine::LoadFrom must succeed, and the loaded engine must
  /// answer the case's query exactly as the oracle evaluated at the state
  /// the recovered checkpoint claims (its manifest epoch decides: the
  /// pre-write baseline or the post-write state — never a mix, never a
  /// third answer). The sweep ends at the first k past the save's step
  /// count, where SaveTo completes and the final load must see the new
  /// state. In the outcome, fault_runs counts crash points swept and
  /// fault_errors the aborted saves (they are equal when all crashes fired).
  CaseOutcome RunCheckpointCase(std::size_t index,
                                const CheckpointConfig& config);

  const WorkloadGenerator& generator() const { return generator_; }
  core::SimilarityEngine& engine() { return engine_; }
  const Oracle& oracle() const { return oracle_; }

 private:
  // The configuration cube and fault sweep of one generated case.
  CaseOutcome Sweep(const WorkloadCase& work, const DiffConfig& config);

  WorkloadGenerator generator_;
  core::SimilarityEngine engine_;
  Oracle oracle_;
};

}  // namespace tsq::testing

#endif  // TSQ_TESTING_DIFFERENTIAL_H_
