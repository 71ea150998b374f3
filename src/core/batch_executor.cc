// The one query executor behind SimilarityEngine::Execute (a one-query batch)
// and SimilarityEngine::ExecuteBatch: one snapshot pin and one planner
// consultation for the whole batch, then, for range queries,
//
//   prepare → traversal → chunked verify → deterministic merge.
//
// Range queries run the paper's Section 4 algorithms. kSequentialScan reads
// every live record once and evaluates the whole transformation set on it
// (log |T| comparisons under an ordering). kStIndex / kMtIndex run
// Algorithm 1: one index traversal per transformation rectangle (singletons
// for ST-index), then post-processing fetches each candidate's full record
// and evaluates the rectangle's transformations on it (in one group kernel
// call, unless an ordering or kDataOnly needs them one at a time). Between
// the two, the feature-level bound (PolarBound) drops every candidate that
// no transformation of its rectangle can bring within epsilon, so the
// index filter's survivors go through
//
//   filter → bound → fetch → verify,
//
// and only the bound's survivors are fetched. k-NN and join queries run
// their own executors (knn_query.cc, join_query.cc) under the batch's pin and
// plan.
//
// Determinism: the task decomposition is fixed — one traversal task per
// rectangle, kVerifyChunk candidates per verify task, kScanChunk ids per scan
// task — and each query merges its partial results in task order, so
// matches, QueryStats, GroupRunStats and trace signatures never depend on
// num_threads.
//
// A batch shares the pin, the planner pass and one ParallelForBatch over
// every query's tasks, and no query work: each range query traverses with
// its own predicate, each verify task fetches into its own scratch, charged
// the pages that fetch read, and an identical spec repeated in a batch
// executes again. Algorithm 1 post-processes each rectangle on its own, and
// Eq. 18-20 charge each query its own index pages and record fetches. Hence
// the batch contract: entry i equals Execute(specs[i]) in matches,
// QueryStats, group_stats and DeterministicSignature(), at every thread
// count and batch composition.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "core/polar_bounds.h"
#include "dft/spectrum.h"
#include "exec/parallel.h"
#include "kernels/kernels.h"
#include "plan/planner.h"
#include "transform/ordering.h"
#include "transform/transform_mbr.h"

namespace tsq::core {

namespace {

// Task granularity. Part of the determinism contract only insofar as they
// are constants: chunk boundaries, and hence the merge order, never depend
// on num_threads or on the batch composition.
constexpr std::size_t kScanChunk = 256;   // ids per seq-scan task
constexpr std::size_t kVerifyChunk = 32;  // candidates per verify task

/// Full range-spec validation (query series, transformations, thresholds,
/// partition well-formedness).
Status ValidateRangeSpec(const Dataset& dataset, const RangeQuerySpec& spec) {
  TSQ_RETURN_IF_ERROR(ValidateQuerySeries(dataset, spec.query));
  TSQ_RETURN_IF_ERROR(ValidateTransforms(dataset, spec.transforms));
  // The negated form also rejects a NaN epsilon, which would otherwise
  // silently match nothing.
  if (!(spec.epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN distance threshold");
  }
  TSQ_RETURN_IF_ERROR(ValidateQueryTransform(dataset, spec.query_transform));
  if (spec.use_ordering && spec.target == TransformTarget::kDataOnly) {
    return Status::InvalidArgument(
        "ordering-based search requires same-transform distances "
        "(TransformTarget::kBoth)");
  }
  return ValidatePartition(spec.partition, spec.transforms.size());
}

/// Sorts the indices of one group into ascending dominance-chain order when
/// the whole transformation set forms a chain; returns false when it does
/// not (the caller falls back to the linear sweep).
bool OrderGroupByChain(const std::vector<std::size_t>& chain,
                       std::vector<std::size_t>* group) {
  if (chain.empty()) return false;
  std::vector<std::size_t> rank(chain.size());
  for (std::size_t pos = 0; pos < chain.size(); ++pos) rank[chain[pos]] = pos;
  std::sort(group->begin(), group->end(),
            [&rank](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  return true;
}

/// The Eq. 12 distance the predicate evaluates for transformation `t`,
/// honouring the spec's TransformTarget, abandoning early past `bound`: exact
/// whenever the result is <= bound; any value > bound (exact or abandoned
/// partial) means "no match". Since partial sums are monotone, the
/// `d2 < eps2` predicate and every reported match distance are identical to
/// the plain evaluation.
double PredicateDistance2Within(const RangeQuerySpec& spec, std::size_t t,
                                std::span<const dft::Complex> candidate_spectrum,
                                std::span<const dft::Complex> query_spectrum,
                                double bound) {
  return spec.target == TransformTarget::kBoth
             ? spec.transforms[t].TransformedSquaredDistance(
                   candidate_spectrum, query_spectrum, bound)
             : spec.transforms[t].TransformedToPlainSquaredDistance(
                   candidate_spectrum, query_spectrum, bound);
}

/// Evaluates the distance predicate for one candidate against the (already
/// chain-ordered, when `ordered`) transformation indices of a group,
/// appending matches and counting comparisons. Without ordering, kBoth
/// evaluates the whole group in one kernel call over `weights` (the group's
/// Eq. 12 weights, in group order) into `distances`; each value is bit for
/// bit the transformation's own TransformedSquaredDistance.
void VerifyCandidate(const RangeQuerySpec& spec,
                     std::span<const dft::Complex> candidate_spectrum,
                     std::span<const dft::Complex> query_spectrum,
                     const std::vector<std::size_t>& group,
                     std::span<const std::span<const double>> weights,
                     bool ordered, std::size_t series_id,
                     std::vector<kernels::EarlyAbandonResult>* distances,
                     std::vector<Match>* matches, QueryStats* stats) {
  const double eps2 = spec.epsilon * spec.epsilon;
  if (ordered) {
    // Distances are non-decreasing along the chain, so the qualifying
    // transformations form a prefix: binary-search its end (Section 4.4).
    // Probe results are cached so reporting the matches costs no extra
    // comparisons beyond the O(log |group|) probes plus one evaluation per
    // reported match that the search did not already touch.
    std::vector<double> cached(group.size(),
                               -std::numeric_limits<double>::infinity());
    const auto distance2 = [&](std::size_t pos) {
      if (cached[pos] < 0.0) {
        ++stats->comparisons;
        // Abandoned evaluations cache a partial sum > eps2: non-negative (so
        // the sentinel stays unambiguous), correctly rejected by the
        // predicate, and never reported (matches have d2 < eps2, hence are
        // exact).
        cached[pos] = PredicateDistance2Within(
            spec, group[pos], candidate_spectrum, query_spectrum, eps2);
      }
      return cached[pos];
    };
    const std::size_t prefix = transform::MonotonePrefixLength(
        group.size(), [&](std::size_t pos) { return distance2(pos) < eps2; });
    for (std::size_t pos = 0; pos < prefix; ++pos) {
      matches->push_back(Match{series_id, group[pos], std::sqrt(distance2(pos))});
    }
    return;
  }
  stats->comparisons += group.size();
  if (spec.target == TransformTarget::kBoth) {
    distances->resize(group.size());
    kernels::WeightedSquaredDistancesWithin(
        dft::AsDoubles(candidate_spectrum), dft::AsDoubles(query_spectrum),
        weights, eps2, *distances);
    for (std::size_t pos = 0; pos < group.size(); ++pos) {
      const double d2 = (*distances)[pos].value;
      if (d2 < eps2) {
        matches->push_back(Match{series_id, group[pos], std::sqrt(d2)});
      }
    }
    return;
  }
  for (const std::size_t t : group) {
    const double d2 = PredicateDistance2Within(spec, t, candidate_spectrum,
                                               query_spectrum, eps2);
    if (d2 < eps2) {
      matches->push_back(Match{series_id, t, std::sqrt(d2)});
    }
  }
}

/// One verification subtask of a range query: a fixed-size chunk of one
/// rectangle's candidate list (indexed), or a fixed-size slice of the
/// relation (scan, whose one "rectangle" is the whole transformation set).
struct VerifyRef {
  std::size_t rect = 0;
  exec::ChunkRange range;
};

struct VerifyPart {
  std::vector<Match> matches;
  QueryStats stats;  // comparisons only
  std::uint64_t record_pages = 0;  // read into per-task scratch
  std::uint64_t bound_nanos = 0;   // the bound over an indexed chunk
  std::uint64_t fetch_nanos = 0;   // fetches (and a scan's id listing)
  std::uint64_t verify_nanos = 0;
  // The ids this task fetched and verified, in order: every live id of a
  // scan slice, the bound's survivors of an indexed chunk.
  std::vector<std::uint64_t> verified_ids;
};

/// One rectangle's index traversal: its search counters and the candidate
/// ids it collected, in traversal order.
struct RectPass {
  rstar::SearchStats search;
  std::uint64_t nanos = 0;
  std::vector<std::uint64_t> candidates;
};

/// Everything one query carries through the batch (none is kept for a
/// query that fails planning or validation).
struct QueryExec {
  enum class Kind { kScan, kIndexed, kKnn, kJoin };
  Kind kind = Kind::kScan;

  ExecOptions resolved;  // the batch's options with the planner's algorithm
  const transform::Partition* planner_partition = nullptr;

  // Range-query state, prepared up front.
  const RangeQuerySpec* range = nullptr;
  PreparedQuery query;
  // The rectangles: the effective partition (indexed) or the whole
  // transformation set as one group (scan).
  transform::Partition partition;
  std::vector<transform::FeatureTransform> feature_transforms;  // indexed
  // Per rectangle, the transformations to verify, chain-ordered when
  // rect_ordered says so.
  std::vector<std::vector<std::size_t>> rect_groups;
  std::vector<bool> rect_ordered;
  // Per rectangle, the feature-level bound against this query (indexed).
  std::vector<PolarBound> rect_bounds;
  // Per rectangle, its transformations' Eq. 12 weights in rect_groups order
  // (kBoth): what one kernel call per candidate evaluates.
  std::vector<std::vector<std::span<const double>>> rect_weights;
  std::uint64_t plan_nanos = 0;

  // Per rectangle, its traversal (indexed).
  std::vector<RectPass> rects;

  // Verification decomposition + per-subtask partial results.
  std::vector<VerifyRef> verify_tasks;
  std::vector<VerifyPart> parts;
};

/// Stamps the fields every executed result carries.
void StampTrace(QueryResult* out, std::uint64_t snapshot_version,
                std::uint64_t checkpoint_epoch, const plan::Planned& planned,
                std::size_t batch_size) {
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      out->value);
  trace.snapshot_version = snapshot_version;
  trace.checkpoint_epoch = checkpoint_epoch;
  trace.kernel_isa = kernels::IsaName(kernels::ActiveIsa());
  trace.batch_size = batch_size;
  if (planned.decision->trace.planned) {
    trace.planner = planned.decision->trace;
    trace.planner.cache_hit = planned.cache_hit;
    // Actual cost in the estimate's own currency: measured disk accesses
    // plus weighted comparisons (what the planner's Eq. 18-20 pricing
    // predicts, with real counters substituted for the analytic terms).
    const QueryStats& stats = out->stats();
    trace.planner.actual_cost =
        planned.decision->constants.c_da *
            static_cast<double>(stats.disk_accesses()) +
        planned.decision->constants.c_cmp *
            static_cast<double>(stats.comparisons);
  }
}

}  // namespace

std::vector<Result<QueryResult>> SimilarityEngine::ExecuteBatch(
    const std::vector<QuerySpec>& specs, const BatchOptions& options) const {
  if (specs.empty()) return {};
  if (options.use_result_cache) {
    return std::vector<Result<QueryResult>>(
        specs.size(),
        Status::InvalidArgument("ExecuteBatch has no result cache; every "
                                "entry executes (use_result_cache = false)"));
  }
  std::vector<const QuerySpec*> spec_ptrs;
  spec_ptrs.reserve(specs.size());
  for (const QuerySpec& spec : specs) spec_ptrs.push_back(&spec);
  return Run(spec_ptrs, options.exec, specs.size());
}

std::vector<Result<QueryResult>> SimilarityEngine::Run(
    const std::vector<const QuerySpec*>& specs, const ExecOptions& options,
    std::size_t batch_size) const {
  const std::uint64_t batch_start = MonotonicNanos();
  const std::size_t n = specs.size();

  // One snapshot pin for the whole batch, planning included: every query
  // sees the same (dataset, index, plan epoch) triple, and its version lands
  // in every trace.
  const SnapshotManager::ReadPin pin = snapshots_.PinRead();
  const std::uint64_t snapshot_version = pin.version();
  const std::uint64_t checkpoint_epoch =
      checkpoint_epoch_.load(std::memory_order_relaxed);

  // One planner consultation (one mutex acquisition) for the whole batch. A
  // forced algorithm passes through the planner too, short-circuiting into
  // an unplanned decision.
  std::vector<Result<plan::Planned>> planned =
      planner_->PlanBatch(specs, options.planner);

  std::vector<std::optional<Result<QueryResult>>> staged(n);

  // --- Per-query preparation -----------------------------------------------
  const transform::FeatureLayout& layout = dataset_->layout();
  std::vector<std::unique_ptr<QueryExec>> execs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!planned[i].ok()) {
      staged[i].emplace(planned[i].status());
      continue;
    }
    auto exec = std::make_unique<QueryExec>();
    const plan::PlanDecision& decision = *planned[i]->decision;
    exec->resolved = options;
    exec->resolved.planner.algorithm = decision.algorithm;
    exec->planner_partition =
        decision.partition.empty() ? nullptr : &decision.partition;

    const auto* range = std::get_if<RangeQuerySpec>(specs[i]);
    if (range == nullptr) {
      exec->kind = std::holds_alternative<KnnQuerySpec>(*specs[i])
                       ? QueryExec::Kind::kKnn
                       : QueryExec::Kind::kJoin;
      execs[i] = std::move(exec);
      continue;
    }

    const std::uint64_t plan_start = MonotonicNanos();
    if (const Status valid = ValidateRangeSpec(*dataset_, *range);
        !valid.ok()) {
      staged[i].emplace(valid);
      continue;
    }
    exec->range = range;
    exec->query = PrepareQuery(*dataset_, range->query, range->query_transform);
    const std::size_t transforms = range->transforms.size();
    if (decision.algorithm == Algorithm::kSequentialScan) {
      exec->kind = QueryExec::Kind::kScan;
      exec->partition = transform::PartitionAll(transforms);
    } else {
      exec->kind = QueryExec::Kind::kIndexed;
      exec->partition =
          EffectivePartition(decision.algorithm, exec->planner_partition,
                             range->partition, transforms);
      exec->feature_transforms.reserve(transforms);
      for (const transform::SpectralTransform& t : range->transforms) {
        exec->feature_transforms.push_back(t.ToFeatureTransform(layout));
      }
    }
    // Dominance-chain ordering for the binary-search post-processing.
    std::vector<std::size_t> chain;
    if (range->use_ordering) {
      chain = transform::DominanceChain(range->transforms);
    }
    exec->rect_groups = exec->partition;
    exec->rect_ordered.resize(exec->partition.size());
    for (std::size_t g = 0; g < exec->partition.size(); ++g) {
      exec->rect_ordered[g] =
          range->use_ordering && OrderGroupByChain(chain, &exec->rect_groups[g]);
      if (exec->kind == QueryExec::Kind::kIndexed) {
        exec->rect_bounds.emplace_back(layout, range->transforms,
                                       exec->rect_groups[g], range->target,
                                       exec->query.coefficients);
      }
      std::vector<std::span<const double>>& weights =
          exec->rect_weights.emplace_back();
      if (range->target == TransformTarget::kBoth) {
        for (const std::size_t t : exec->rect_groups[g]) {
          weights.push_back(range->transforms[t].component_squared_magnitudes());
        }
      }
    }
    exec->plan_nanos = MonotonicNanos() - plan_start;
    execs[i] = std::move(exec);
  }

  // --- Phase A: index traversals -------------------------------------------
  // One task per (indexed query, rectangle), searching with the query's own
  // predicate. A query's traversal status is its lowest-rectangle failure.
  std::vector<std::size_t> traversal_counts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] != nullptr && execs[i]->kind == QueryExec::Kind::kIndexed) {
      execs[i]->rects.resize(execs[i]->partition.size());
      traversal_counts[i] = execs[i]->rects.size();
    }
  }
  const std::vector<Status> traversal_status = exec::ParallelForBatch(
      options.num_threads, traversal_counts,
      [&](std::size_t i, std::size_t r) -> Status {
        QueryExec& q = *execs[i];
        RectPass& pass = q.rects[r];
        const std::uint64_t task_start = MonotonicNanos();
        std::vector<transform::FeatureTransform> rect_fts;
        rect_fts.reserve(q.partition[r].size());
        for (const std::size_t t : q.partition[r]) {
          rect_fts.push_back(q.feature_transforms[t]);
        }
        const transform::TransformMbr mbr(rect_fts, layout);
        // kBoth: the query region covers every transformed query image
        // t(q). kDataOnly: the query is compared untransformed, so the
        // region is the paper's literal step 2 — a safe window around q.
        const std::vector<transform::FeatureTransform> identity = {
            transform::FeatureTransform::Identity(layout.dimensions())};
        const rstar::Rect region = BuildQueryRegion(
            q.query.features,
            q.range->target == TransformTarget::kBoth
                ? std::span<const transform::FeatureTransform>(rect_fts)
                : std::span<const transform::FeatureTransform>(identity),
            q.range->epsilon, layout);
        const Status status = index_->tree().Search(
            [&](const rstar::RectView& rect) {
              return mbr.AppliedIntersects(rect, region);
            },
            &pass.candidates, &pass.search);
        pass.nanos = MonotonicNanos() - task_start;
        return status;
      });

  // --- Phase B: verification -----------------------------------------------
  // Per query: rect-major kVerifyChunk chunks (indexed) or kScanChunk slices
  // (scan). All queries' subtasks run through one ParallelForBatch, so slow
  // queries borrow workers from fast ones; each query's status is its
  // lowest-index failing subtask's.
  std::vector<std::size_t> verify_counts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] == nullptr) continue;
    QueryExec& q = *execs[i];
    if (q.kind == QueryExec::Kind::kScan) {
      const std::size_t slices = exec::ChunkCount(dataset_->size(), kScanChunk);
      q.verify_tasks.reserve(slices);
      for (std::size_t c = 0; c < slices; ++c) {
        q.verify_tasks.push_back(
            VerifyRef{0, exec::ChunkBounds(dataset_->size(), kScanChunk, c)});
      }
    } else if (q.kind == QueryExec::Kind::kIndexed &&
               traversal_status[i].ok()) {
      for (std::size_t g = 0; g < q.rects.size(); ++g) {
        const std::size_t count = q.rects[g].candidates.size();
        const std::size_t chunks = exec::ChunkCount(count, kVerifyChunk);
        for (std::size_t c = 0; c < chunks; ++c) {
          q.verify_tasks.push_back(
              VerifyRef{g, exec::ChunkBounds(count, kVerifyChunk, c)});
        }
      }
    }
    q.parts.resize(q.verify_tasks.size());
    verify_counts[i] = q.verify_tasks.size();
  }
  const std::vector<Status> verify_status = exec::ParallelForBatch(
      options.num_threads, verify_counts,
      [&](std::size_t i, std::size_t ti) -> Status {
        QueryExec& q = *execs[i];
        const VerifyRef& ref = q.verify_tasks[ti];
        VerifyPart& part = q.parts[ti];
        const bool scan = q.kind == QueryExec::Kind::kScan;
        const std::vector<std::uint64_t>* candidates =
            scan ? nullptr : &q.rects[ref.rect].candidates;
        // The ids to fetch: a scan's live ids, or the chunk's candidates the
        // rectangle's bound cannot rule out. An id past the dataset comes
        // from a damaged leaf; it is never pruned (its coefficients do not
        // exist), so its fetch reports OutOfRange.
        const std::uint64_t bound_start = MonotonicNanos();
        const double eps2 = q.range->epsilon * q.range->epsilon;
        for (std::size_t c = ref.range.first; c < ref.range.last; ++c) {
          const std::uint64_t id = scan ? c : (*candidates)[c];
          if (scan ? dataset_->removed(id)
                   : id < dataset_->size() &&
                         q.rect_bounds[ref.rect].Prunes(
                             dataset_->coefficients(id), eps2)) {
            continue;
          }
          part.verified_ids.push_back(id);
        }
        (scan ? part.fetch_nanos : part.bound_nanos) +=
            MonotonicNanos() - bound_start;
        std::vector<dft::Complex> scratch(dataset_->length());
        std::vector<kernels::EarlyAbandonResult> distances;
        for (const std::uint64_t id : part.verified_ids) {
          const std::uint64_t fetch_start = MonotonicNanos();
          const Status fetched =
              dataset_->FetchSpectrumInto(id, scratch, &part.record_pages);
          const std::uint64_t fetch_end = MonotonicNanos();
          part.fetch_nanos += fetch_end - fetch_start;
          if (!fetched.ok()) return fetched;
          VerifyCandidate(*q.range, scratch, q.query.spectrum,
                          q.rect_groups[ref.rect], q.rect_weights[ref.rect],
                          q.rect_ordered[ref.rect], id, &distances,
                          &part.matches, &part.stats);
          part.verify_nanos += MonotonicNanos() - fetch_end;
        }
        return Status::Ok();
      });

  // --- Assembly: range queries ---------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] == nullptr || execs[i]->range == nullptr) continue;
    QueryExec& q = *execs[i];
    if (!traversal_status[i].ok()) {
      staged[i].emplace(traversal_status[i]);
      continue;
    }
    if (!verify_status[i].ok()) {
      staged[i].emplace(verify_status[i]);
      continue;
    }

    QueryResult out;
    RangeQueryResult result;
    QueryStats& stats = result.stats;
    obs::QueryTrace& trace = result.trace;
    trace.algorithm = AlgorithmName(q.resolved.planner.algorithm);
    trace.num_threads = q.resolved.num_threads;
    trace.at(obs::Phase::kPlan).AddTask(q.plan_nanos,
                                        q.range->transforms.size());

    const std::uint64_t merge_start = MonotonicNanos();
    std::vector<std::uint64_t> rect_pages(q.rect_groups.size(), 0);
    for (std::size_t ti = 0; ti < q.parts.size(); ++ti) {
      const VerifyPart& part = q.parts[ti];
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      stats.verified_candidates += part.verified_ids.size();
      stats.record_pages_read += part.record_pages;
      rect_pages[q.verify_tasks[ti].rect] += part.record_pages;
      if (q.kind == QueryExec::Kind::kIndexed) {
        const exec::ChunkRange& range = q.verify_tasks[ti].range;
        trace.at(obs::Phase::kBound)
            .AddTask(part.bound_nanos, range.last - range.first);
      }
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, part.verified_ids.size());
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
      // A scan's candidates are the sequences it evaluated.
      if (q.kind == QueryExec::Kind::kScan) {
        stats.candidates += part.verified_ids.size();
      }
    }

    for (std::size_t g = 0; g < q.rects.size(); ++g) {
      const RectPass& pass = q.rects[g];
      stats.candidates += pass.candidates.size();
      ++stats.traversals;
      stats.index_nodes_accessed += pass.search.nodes_accessed;
      stats.index_leaves_accessed += pass.search.leaf_nodes_accessed;
      trace.at(obs::Phase::kIndexTraversal)
          .AddTask(pass.nanos, pass.search.nodes_accessed);
      // The inputs of the cost function Ck (Eq. 20) for this rectangle.
      out.group_stats.push_back(GroupRunStats{
          pass.search.nodes_accessed + rect_pages[g],
          pass.search.leaf_nodes_accessed, q.rect_groups[g].size(),
          pass.candidates.size()});
    }
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - batch_start;
    out.value = std::move(result);
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i],
               batch_size);
    staged[i].emplace(std::move(out));
  }

  // --- k-NN and join queries -----------------------------------------------
  // They run under the same pin with the batch's plan decisions (the point
  // of batching them is the shared pin and planner pass).
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] == nullptr || execs[i]->range != nullptr) continue;
    const QueryExec& q = *execs[i];
    QueryResult out;
    if (q.kind == QueryExec::Kind::kKnn) {
      Result<KnnQueryResult> result =
          RunKnnQuery(*dataset_, *index_, std::get<KnnQuerySpec>(*specs[i]),
                      q.resolved, q.planner_partition);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    } else {
      Result<JoinQueryResult> result =
          RunJoinQuery(*dataset_, *index_, std::get<JoinQuerySpec>(*specs[i]),
                       q.resolved, q.planner_partition);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    }
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i],
               batch_size);
    staged[i].emplace(std::move(out));
  }

  std::vector<Result<QueryResult>> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) results.push_back(std::move(*staged[i]));
  return results;
}

}  // namespace tsq::core
