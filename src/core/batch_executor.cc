// The one query executor behind SimilarityEngine::Execute (a one-query batch
// with the result cache off) and SimilarityEngine::ExecuteBatch: one
// snapshot pin and one planner consultation for the whole batch, then, for
// range queries,
//
//   prepare → shared traversal → chunked verify → deterministic merge.
//
// Range queries run the paper's Section 4 algorithms. kSequentialScan reads
// every live record once and evaluates the whole transformation set on it
// (log |T| comparisons under an ordering). kStIndex / kMtIndex run
// Algorithm 1: one index traversal per transformation rectangle (singletons
// for ST-index), then post-processing fetches each candidate's full record
// and evaluates the rectangle's transformations on it. k-NN and join queries
// run their own executors (knn_query.cc, join_query.cc) under the batch's pin
// and plan.
//
// Determinism: the task decomposition is fixed — one traversal task per
// rectangle, kVerifyChunk candidates per verify task, kScanChunk ids per scan
// task — and each query merges its partial results in task order, so
// matches, QueryStats, GroupRunStats and trace signatures never depend on
// num_threads. Matches never depend on the batch composition either, which
// rests on how shared traversals are built:
//
//  * indexed range queries with identical (transform set, effective
//    partition) share one traversal per rectangle, driven by the union
//    predicate `any member: mbr.AppliedIntersects(rect, region_m)`, which
//    visits a superset of every member's own node set;
//  * TransformMbr::Apply is monotone in rect containment, so a leaf entry
//    passing member m's test implies every ancestor rect passes it too —
//    re-filtering the union traversal's collected entries with m's own test
//    therefore yields exactly m's own candidate *set*;
//  * the traversal is a deterministic stack DFS, and union-only subtrees are
//    pushed/popped as contiguous blocks between m's subtrees, so the
//    relative order of m's entries is m's own *order*.
//
// A group of one member searches with that member's own predicate and skips
// the re-filter.
//
// Where a candidate's spectrum comes from depends on the batch composition:
//
//  * one executing range query (every Execute() call): each (rectangle,
//    candidate) fetch reads into per-task scratch and is charged the pages it
//    read. Algorithm 1 post-processes each rectangle on its own, and the
//    Eq. 20 cost model charges each rectangle its own record fetches.
//  * two or more: a batch-scoped fetch table memoizes each record fetch (a
//    page is read once per batch) and records the pages it cost via
//    FetchSpectrumInto's per-call out-param — never by diffing the shared
//    PageFile counters, which keeps the accounting immune to a concurrent
//    ResetIoStats(). A serial post-pass charges each fetched id's pages to
//    the lowest-indexed successful query that requested it (queries in input
//    order, each query's candidates in rect-major task order), which is
//    thread-count independent because the candidate lists are.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "core/result_cache.h"
#include "exec/batch_schedule.h"
#include "exec/parallel.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
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

struct BatchMetrics {
  obs::Counter* batches;
  obs::Counter* queries;
  obs::Counter* shared_traversals;
  obs::Counter* deduped_fetches;

  static const BatchMetrics& Get() {
    static const BatchMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return BatchMetrics{registry.counter("engine.batch.batches"),
                          registry.counter("engine.batch.queries"),
                          registry.counter("engine.batch.shared_traversals"),
                          registry.counter("engine.batch.deduped_fetches")};
    }();
    return metrics;
  }
};

/// Full range-spec validation (query series, lengths, thresholds, partition
/// well-formedness).
Status ValidateRangeSpec(const Dataset& dataset, const RangeQuerySpec& spec) {
  TSQ_RETURN_IF_ERROR(ValidateQuerySeries(dataset, spec.query));
  if (spec.transforms.empty()) {
    return Status::InvalidArgument("no transformations in query");
  }
  // The negated form also rejects a NaN epsilon, which would otherwise
  // silently match nothing.
  if (!(spec.epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN distance threshold");
  }
  if (spec.query_transform.has_value() &&
      spec.query_transform->length() != dataset.length()) {
    return Status::InvalidArgument(
        "query transformation length does not match dataset");
  }
  if (spec.use_ordering && spec.target == TransformTarget::kDataOnly) {
    return Status::InvalidArgument(
        "ordering-based search requires same-transform distances "
        "(TransformTarget::kBoth)");
  }
  for (const transform::SpectralTransform& t : spec.transforms) {
    if (t.length() != dataset.length()) {
      return Status::InvalidArgument(
          "transformation length does not match dataset: " + t.label());
    }
    if (dataset.layout().use_symmetry && !t.PreservesRealSequences()) {
      return Status::InvalidArgument(
          "symmetry-based filtering requires real-preserving "
          "transformations: " +
          t.label());
    }
  }
  if (!spec.partition.empty()) {
    std::vector<bool> seen(spec.transforms.size(), false);
    for (const auto& group : spec.partition) {
      if (group.empty()) {
        return Status::InvalidArgument("empty transformation group");
      }
      for (const std::size_t t : group) {
        if (t >= spec.transforms.size() || seen[t]) {
          return Status::InvalidArgument(
              "partition is not a partition of the transformation set");
        }
        seen[t] = true;
      }
    }
    if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
      return Status::InvalidArgument(
          "partition does not cover the transformation set");
    }
  }
  return Status::Ok();
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
             ? spec.transforms[t].TransformedSquaredDistanceWithin(
                   candidate_spectrum, query_spectrum, bound)
             : spec.transforms[t].TransformedToPlainSquaredDistanceWithin(
                   candidate_spectrum, query_spectrum, bound);
}

/// Evaluates the distance predicate for one candidate against the (already
/// chain-ordered, when `ordered`) transformation indices of a group,
/// appending matches and counting comparisons.
void VerifyCandidate(const RangeQuerySpec& spec,
                     std::span<const dft::Complex> candidate_spectrum,
                     std::span<const dft::Complex> query_spectrum,
                     const std::vector<std::size_t>& group, bool ordered,
                     std::size_t series_id, std::vector<Match>* matches,
                     QueryStats* stats) {
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
  for (const std::size_t t : group) {
    ++stats->comparisons;
    const double d2 = PredicateDistance2Within(spec, t, candidate_spectrum,
                                               query_spectrum, eps2);
    if (d2 < eps2) {
      matches->push_back(Match{series_id, t, std::sqrt(d2)});
    }
  }
}

/// Memoized record fetches for one batch of two or more range queries: slot
/// i holds sequence i's fetched spectrum (or the error of the one attempted
/// fetch) plus the physical pages that single fetch read. The slot vector is
/// sized once from the pinned dataset and never resized, so concurrent Get()
/// calls only race on the per-slot once_flag. The fetch lands straight in the
/// slot's buffer (FetchSpectrumInto), and its page count comes from the
/// out-param — a per-call delta, not a shared-counter diff — so a
/// ResetIoStats() racing the batch cannot split or double the dedupe
/// accounting.
class BatchFetchTable {
 public:
  explicit BatchFetchTable(const Dataset& dataset)
      : dataset_(dataset), slots_(dataset.size()) {}

  /// The memoized fetch of sequence `id` (first caller pays the I/O). The
  /// span stays valid for the table's lifetime.
  Result<std::span<const dft::Complex>> Get(std::size_t id) {
    // The id comes from a disk-resident index leaf: a corrupted one gets the
    // Status FetchSpectrumInto gives it, not a read past the slots.
    if (id >= slots_.size()) {
      return Status::OutOfRange("no such sequence id: " + std::to_string(id));
    }
    Slot& slot = slots_[id];
    std::call_once(slot.once, [&] {
      slot.spectrum.resize(dataset_.length());
      slot.status = dataset_.FetchSpectrumInto(id, slot.spectrum, &slot.pages);
    });
    if (!slot.status.ok()) return slot.status;
    return std::span<const dft::Complex>(slot.spectrum);
  }

  /// Physical pages the one fetch of `id` read (0 if never fetched).
  std::uint64_t pages(std::size_t id) const { return slots_[id].pages; }

 private:
  struct Slot {
    std::once_flag once;
    Status status;
    std::vector<dft::Complex> spectrum;
    std::uint64_t pages = 0;
  };

  const Dataset& dataset_;
  std::vector<Slot> slots_;
};

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
  std::uint64_t fetch_nanos = 0;
  std::uint64_t verify_nanos = 0;
  std::uint64_t fetched = 0;  // candidates fetched
};

/// Everything one *executing* query carries through the batch (cache hits
/// and in-batch duplicates never build one of these).
struct QueryExec {
  enum class Kind { kScan, kIndexed, kKnn, kJoin };
  Kind kind = Kind::kScan;

  ExecOptions resolved;  // options.exec with the planner's algorithm
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
  std::uint64_t plan_nanos = 0;

  // Shared-traversal membership (indexed only).
  std::size_t group_id = 0;
  std::size_t member_index = 0;

  // Verification decomposition + per-subtask partial results.
  std::vector<VerifyRef> verify_tasks;
  std::vector<VerifyPart> parts;

  // Record pages charged per rectangle; fetch-table requests and the first
  // claims among them (their difference is the deduped fetches).
  std::vector<std::uint64_t> rect_pages;
  std::uint64_t requests = 0;
  std::uint64_t claims = 0;
};

/// One rectangle of a traversal: the status of its search and the candidate
/// id list of every member.
struct RectPass {
  rstar::SearchStats search;
  std::uint64_t nanos = 0;
  Status status = Status::Ok();
  std::vector<std::vector<std::uint64_t>> member_candidates;
};

/// Executing indexed range queries with identical (transform set, effective
/// partition) — one index traversal per rectangle serves all of them. The
/// lowest-indexed member is the leader: union traversal counters are
/// attributed to it (every other member reports 0 for those fields).
struct TraversalGroup {
  std::vector<std::size_t> members;  // spec indices, input order
  std::vector<RectPass> rects;
  Status status = Status::Ok();  // lowest-rect-index traversal failure
};

/// Grouping signature: the parts of a range query that must coincide for
/// two queries to share a traversal. Epsilon, target, ordering, the query
/// itself and its query_transform may all differ — they only shape each
/// member's own region and verification.
plan::PlanKey TraversalSignature(const RangeQuerySpec& spec,
                                 const transform::Partition& partition) {
  plan::PlanKeyBuilder key;
  key.Add(spec.transforms.size());
  for (const transform::SpectralTransform& t : spec.transforms) {
    key.AddString(t.label());
    key.Add(t.length());
    for (std::size_t f = 0; f < t.length(); ++f) {
      const dft::Complex m = t.multiplier(f);
      key.AddDouble(m.real());
      key.AddDouble(m.imag());
    }
  }
  key.Add(partition.size());
  for (const std::vector<std::size_t>& group : partition) {
    key.Add(group.size());
    for (const std::size_t t : group) key.Add(t);
  }
  return key.key();
}

obs::QueryTrace& MutableTrace(QueryResult* out) {
  return std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      out->value);
}

/// Resets the five batch fields to what a plain Execute() reports.
void ClearBatchFields(obs::QueryTrace* trace) {
  trace->batch_size = 0;
  trace->batch_group_queries = 0;
  trace->shared_traversal = false;
  trace->deduped_fetches = 0;
  trace->result_cache_hit = false;
}

/// Stamps the fields every executed result carries.
void StampTrace(QueryResult* out, std::uint64_t snapshot_version,
                std::uint64_t checkpoint_epoch, const plan::Planned& planned,
                std::size_t batch_size) {
  obs::QueryTrace& trace = MutableTrace(out);
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

/// Copies a cached (or leader's) result for serving, rewriting the batch
/// fields for the serving batch: the cached canonical copy has them zeroed,
/// and stale sharing data from the computing batch must not leak.
QueryResult ServeCopy(const QueryResult& canonical, std::size_t batch_size) {
  QueryResult out = canonical;
  obs::QueryTrace& trace = MutableTrace(&out);
  ClearBatchFields(&trace);
  trace.batch_size = batch_size;
  trace.result_cache_hit = true;
  return out;
}

/// The canonical form a result is cached under: batch fields zeroed, so a
/// hit served into a later batch carries that batch's sharing data (none),
/// not the computing batch's.
std::shared_ptr<const QueryResult> CanonicalForCache(const QueryResult& out) {
  auto canonical = std::make_shared<QueryResult>(out);
  ClearBatchFields(&MutableTrace(canonical.get()));
  return canonical;
}

}  // namespace

std::vector<Result<QueryResult>> SimilarityEngine::ExecuteBatch(
    const std::vector<QuerySpec>& specs, const BatchOptions& options) const {
  if (specs.empty()) return {};
  const BatchMetrics& metrics = BatchMetrics::Get();
  metrics.batches->Increment();
  metrics.queries->Increment(specs.size());
  std::vector<const QuerySpec*> spec_ptrs;
  spec_ptrs.reserve(specs.size());
  for (const QuerySpec& spec : specs) spec_ptrs.push_back(&spec);
  return Run(spec_ptrs, options, /*batched=*/true);
}

std::vector<Result<QueryResult>> SimilarityEngine::Run(
    const std::vector<const QuerySpec*>& specs, const BatchOptions& options,
    bool batched) const {
  const BatchMetrics& metrics = BatchMetrics::Get();
  const std::uint64_t batch_start = MonotonicNanos();
  const std::size_t n = specs.size();

  // One snapshot pin for the whole batch, planning included: every query
  // sees the same (dataset, index, plan epoch) triple, and its version keys
  // the cache and lands in every trace.
  const SnapshotManager::ReadPin pin = snapshots_.PinRead();
  const std::uint64_t snapshot_version = pin.version();
  const std::uint64_t checkpoint_epoch =
      checkpoint_epoch_.load(std::memory_order_relaxed);
  const std::uint64_t config_epoch =
      config_epoch_.load(std::memory_order_acquire);

  // One planner consultation (one mutex acquisition) for the whole batch. A
  // forced algorithm passes through the planner too, short-circuiting into
  // an unplanned decision.
  std::vector<Result<plan::Planned>> planned =
      planner_->PlanBatch(specs, options.exec.planner);

  std::vector<std::optional<Result<QueryResult>>> staged(n);

  // --- Result cache pre-pass -----------------------------------------------
  // Per query: serve a hit, defer to an identical earlier spec of this batch
  // (dup), claim ownership of the key (pinned — this query publishes), or
  // bypass (another batch is computing the same key right now; execute
  // without publishing).
  std::vector<std::optional<plan::PlanKey>> cache_keys(n);
  std::vector<bool> pinned(n, false);
  struct Dup {
    std::size_t index;
    std::size_t leader;
  };
  std::vector<Dup> dups;
  if (options.use_result_cache) {
    std::unordered_map<plan::PlanKey, std::size_t, plan::PlanKeyHash>
        leader_for_key;
    for (std::size_t i = 0; i < n; ++i) {
      if (!planned[i].ok()) continue;
      const ResultCacheKey key = ComputeResultCacheKey(
          *specs[i], options.exec, snapshot_version, config_epoch);
      if (!key.cacheable) continue;
      cache_keys[i] = key.key;
      if (std::shared_ptr<const QueryResult> hit =
              result_cache_->Lookup(key.key)) {
        staged[i].emplace(ServeCopy(*hit, n));
        continue;
      }
      if (const auto it = leader_for_key.find(key.key);
          it != leader_for_key.end()) {
        dups.push_back(Dup{i, it->second});
        continue;
      }
      leader_for_key.emplace(key.key, i);
      pinned[i] = result_cache_->Pin(key.key);
    }
  }
  const auto is_dup = [&dups](std::size_t i) {
    for (const Dup& dup : dups) {
      if (dup.index == i) return true;
    }
    return false;
  };

  // --- Per-query preparation -----------------------------------------------
  const transform::FeatureLayout& layout = dataset_->layout();
  std::vector<std::unique_ptr<QueryExec>> execs(n);
  std::size_t range_queries = 0;  // executing range queries
  for (std::size_t i = 0; i < n; ++i) {
    if (staged[i].has_value() || is_dup(i)) continue;
    if (!planned[i].ok()) {
      staged[i].emplace(planned[i].status());
      continue;
    }
    auto exec = std::make_unique<QueryExec>();
    const plan::PlanDecision& decision = *planned[i]->decision;
    exec->resolved = options.exec;
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
    ++range_queries;
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
    }
    exec->plan_nanos = MonotonicNanos() - plan_start;
    execs[i] = std::move(exec);
  }
  // Work is shared across range queries only when there are two to share.
  const bool share = range_queries >= 2;

  // --- Traversal grouping --------------------------------------------------
  // Executing indexed range queries with identical (transform set, effective
  // partition) share one traversal per rectangle. Group ids are assigned in
  // input order, so the grouping — like everything else — is deterministic.
  std::vector<TraversalGroup> groups;
  {
    std::unordered_map<plan::PlanKey, std::size_t, plan::PlanKeyHash>
        group_for_signature;
    for (std::size_t i = 0; i < n; ++i) {
      if (execs[i] == nullptr || execs[i]->kind != QueryExec::Kind::kIndexed) {
        continue;
      }
      std::size_t group = groups.size();
      if (share) {
        group = group_for_signature
                    .emplace(TraversalSignature(*execs[i]->range,
                                                execs[i]->partition),
                             groups.size())
                    .first->second;
      }
      if (group == groups.size()) {
        groups.emplace_back();
        groups.back().rects.resize(execs[i]->partition.size());
      }
      execs[i]->group_id = group;
      execs[i]->member_index = groups[group].members.size();
      groups[group].members.push_back(i);
    }
  }

  // --- Phase A: index traversals -------------------------------------------
  // One task per (group, rectangle). The union of the member regions drives
  // the descent; each collected entry is then re-tested per member, which
  // (by monotonicity, see the file comment) recovers each member's own
  // candidate list exactly.
  {
    struct TraversalTask {
      std::size_t group = 0;
      std::size_t rect = 0;
    };
    std::vector<TraversalTask> tasks;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t r = 0; r < groups[g].rects.size(); ++r) {
        tasks.push_back(TraversalTask{g, r});
      }
    }
    (void)exec::ParallelFor(
        options.exec.num_threads, tasks.size(), [&](std::size_t ti) -> Status {
          const TraversalTask& task = tasks[ti];
          TraversalGroup& group = groups[task.group];
          RectPass& pass = group.rects[task.rect];
          const std::uint64_t task_start = MonotonicNanos();
          const QueryExec& leader = *execs[group.members.front()];
          const std::vector<std::size_t>& rect_transforms =
              leader.partition[task.rect];
          std::vector<transform::FeatureTransform> group_fts;
          group_fts.reserve(rect_transforms.size());
          for (const std::size_t t : rect_transforms) {
            group_fts.push_back(leader.feature_transforms[t]);
          }
          const transform::TransformMbr mbr(group_fts, layout);
          // kBoth: the query region covers every transformed query image
          // t(q). kDataOnly: the query is compared untransformed, so the
          // region is the paper's literal step 2 — a safe window around q.
          const std::vector<transform::FeatureTransform> identity = {
              transform::FeatureTransform::Identity(layout.dimensions())};
          // Per-member query regions (each member's own epsilon band and
          // target semantics; the MBR is common to the group).
          std::vector<rstar::Rect> regions;
          regions.reserve(group.members.size());
          for (const std::size_t member : group.members) {
            const QueryExec& q = *execs[member];
            regions.push_back(BuildQueryRegion(
                q.query.features,
                q.range->target == TransformTarget::kBoth
                    ? std::span<const transform::FeatureTransform>(group_fts)
                    : std::span<const transform::FeatureTransform>(identity),
                q.range->epsilon, layout));
          }
          pass.member_candidates.resize(regions.size());
          if (regions.size() == 1) {
            // The union predicate is the one member's own: its hits are its
            // candidates, no leaf coordinates or re-filter needed.
            pass.status = index_->tree().Search(
                [&](const rstar::RectView& rect) {
                  return mbr.AppliedIntersects(rect, regions.front());
                },
                &pass.member_candidates.front(), &pass.search);
          } else {
            std::vector<std::uint64_t> ids;
            std::vector<double> coords;
            pass.status = index_->tree().Search(
                [&](const rstar::RectView& rect) {
                  for (const rstar::Rect& region : regions) {
                    if (mbr.AppliedIntersects(rect, region)) return true;
                  }
                  return false;
                },
                &ids, &pass.search, &coords);
            if (pass.status.ok()) {
              const std::size_t dims = index_->tree().dimensions();
              for (std::size_t h = 0; h < ids.size(); ++h) {
                const rstar::RectView rect(coords.data() + 2 * dims * h, dims);
                for (std::size_t m = 0; m < regions.size(); ++m) {
                  if (mbr.AppliedIntersects(rect, regions[m])) {
                    pass.member_candidates[m].push_back(ids[h]);
                  }
                }
              }
            }
          }
          pass.nanos = MonotonicNanos() - task_start;
          return Status::Ok();  // per-rect status captured in the pass
        });
    for (TraversalGroup& group : groups) {
      for (const RectPass& pass : group.rects) {
        if (!pass.status.ok()) {
          group.status = pass.status;  // lowest rect index wins
          break;
        }
      }
      if (group.members.size() >= 2) {
        metrics.shared_traversals->Increment(group.rects.size());
      }
    }
  }

  // --- Phase B: verification -----------------------------------------------
  // Per query: rect-major kVerifyChunk chunks (indexed) or kScanChunk slices
  // (scan). All queries' subtasks run through one ParallelForBatch, so slow
  // queries borrow workers from fast ones; each query's status is its
  // lowest-index failing subtask's.
  std::optional<BatchFetchTable> fetch_table;
  if (share) fetch_table.emplace(*dataset_);
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
               groups[q.group_id].status.ok()) {
      const TraversalGroup& group = groups[q.group_id];
      for (std::size_t g = 0; g < group.rects.size(); ++g) {
        const std::size_t count =
            group.rects[g].member_candidates[q.member_index].size();
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
      options.exec.num_threads, verify_counts,
      [&](std::size_t i, std::size_t ti) -> Status {
        QueryExec& q = *execs[i];
        const VerifyRef& ref = q.verify_tasks[ti];
        VerifyPart& part = q.parts[ti];
        const bool scan = q.kind == QueryExec::Kind::kScan;
        const std::vector<std::uint64_t>* candidates =
            scan ? nullptr
                 : &groups[q.group_id]
                        .rects[ref.rect]
                        .member_candidates[q.member_index];
        std::vector<dft::Complex> scratch(fetch_table ? 0 : dataset_->length());
        const auto fetch =
            [&](std::uint64_t id) -> Result<std::span<const dft::Complex>> {
          if (fetch_table) return fetch_table->Get(id);
          TSQ_RETURN_IF_ERROR(
              dataset_->FetchSpectrumInto(id, scratch, &part.record_pages));
          return std::span<const dft::Complex>(scratch);
        };
        for (std::size_t c = ref.range.first; c < ref.range.last; ++c) {
          const std::uint64_t id = scan ? c : (*candidates)[c];
          if (scan && dataset_->removed(id)) continue;
          const std::uint64_t fetch_start = MonotonicNanos();
          const Result<std::span<const dft::Complex>> spectrum = fetch(id);
          const std::uint64_t fetch_end = MonotonicNanos();
          part.fetch_nanos += fetch_end - fetch_start;
          if (!spectrum.ok()) return spectrum.status();
          ++part.fetched;
          VerifyCandidate(*q.range, *spectrum, q.query.spectrum,
                          q.rect_groups[ref.rect], q.rect_ordered[ref.rect],
                          id, &part.matches, &part.stats);
          part.verify_nanos += MonotonicNanos() - fetch_end;
        }
        return Status::Ok();
      });

  // --- Record-page attribution ---------------------------------------------
  // Per-task scratch charges every fetch the pages it read. Through the
  // fetch table, queries go in input order and each query's fetched ids in
  // its subtask order: the first successful query to request an id is
  // charged the physical pages its one fetch read, and later requests of the
  // same id are the deduped fetches. Failed queries are skipped entirely
  // (they surface no stats), so every charge is backed by a completed fetch.
  {
    std::vector<bool> claimed(fetch_table ? dataset_->size() : 0, false);
    for (std::size_t i = 0; i < n; ++i) {
      if (execs[i] == nullptr || execs[i]->range == nullptr) continue;
      QueryExec& q = *execs[i];
      if (q.kind == QueryExec::Kind::kIndexed &&
          !groups[q.group_id].status.ok()) {
        continue;
      }
      if (!verify_status[i].ok()) continue;
      q.rect_pages.assign(q.rect_groups.size(), 0);
      if (!fetch_table) {
        for (std::size_t ti = 0; ti < q.parts.size(); ++ti) {
          q.rect_pages[q.verify_tasks[ti].rect] += q.parts[ti].record_pages;
        }
        continue;
      }
      const auto request = [&](std::size_t id, std::size_t rect) {
        ++q.requests;
        if (!claimed[id]) {
          claimed[id] = true;
          ++q.claims;
          q.rect_pages[rect] += fetch_table->pages(id);
        }
      };
      if (q.kind == QueryExec::Kind::kScan) {
        for (std::size_t id = 0; id < dataset_->size(); ++id) {
          if (!dataset_->removed(id)) request(id, 0);
        }
      } else {
        const TraversalGroup& group = groups[q.group_id];
        for (std::size_t g = 0; g < group.rects.size(); ++g) {
          for (const std::uint64_t id :
               group.rects[g].member_candidates[q.member_index]) {
            request(id, g);
          }
        }
      }
      metrics.deduped_fetches->Increment(q.requests - q.claims);
    }
  }

  // --- Assembly: range queries ---------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] == nullptr || execs[i]->range == nullptr) continue;
    QueryExec& q = *execs[i];
    if (q.kind == QueryExec::Kind::kIndexed &&
        !groups[q.group_id].status.ok()) {
      staged[i].emplace(groups[q.group_id].status);
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
    for (VerifyPart& part : q.parts) {
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, part.fetched);
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
      // A scan's candidates are the sequences it evaluated.
      if (q.kind == QueryExec::Kind::kScan) stats.candidates += part.fetched;
    }
    for (const std::uint64_t pages : q.rect_pages) {
      stats.record_pages_read += pages;
    }

    if (q.kind == QueryExec::Kind::kIndexed) {
      const TraversalGroup& group = groups[q.group_id];
      const bool leader = q.member_index == 0;
      trace.batch_group_queries = group.members.size();
      trace.shared_traversal = group.members.size() >= 2;
      for (std::size_t g = 0; g < group.rects.size(); ++g) {
        const RectPass& pass = group.rects[g];
        const std::size_t member_count =
            pass.member_candidates[q.member_index].size();
        stats.candidates += member_count;
        if (leader) {
          // Shared traversal counters go to the group leader; every other
          // member reports 0 so the batch total equals the physical work.
          ++stats.traversals;
          stats.index_nodes_accessed += pass.search.nodes_accessed;
          stats.index_leaves_accessed += pass.search.leaf_nodes_accessed;
          trace.at(obs::Phase::kIndexTraversal)
              .AddTask(pass.nanos, pass.search.nodes_accessed);
        }
        // The inputs of the cost function Ck (Eq. 20) for this rectangle.
        out.group_stats.push_back(GroupRunStats{
            (leader ? pass.search.nodes_accessed : 0) + q.rect_pages[g],
            leader ? pass.search.leaf_nodes_accessed : 0,
            q.rect_groups[g].size(), member_count});
      }
    }
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - batch_start;
    trace.deduped_fetches = q.requests - q.claims;
    out.value = std::move(result);
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i], n);
    staged[i].emplace(std::move(out));
  }

  // --- k-NN and join queries -----------------------------------------------
  // They run under the same pin with the batch's plan decisions (the point
  // of batching them is the shared pin + planner pass + result cache).
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
    StampTrace(&out, snapshot_version, checkpoint_epoch, *planned[i], n);
    staged[i].emplace(std::move(out));
  }

  // --- Cache publish + in-batch duplicates ---------------------------------
  if (options.use_result_cache) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!pinned[i]) continue;
      if (staged[i].has_value() && staged[i]->ok()) {
        result_cache_->Insert(*cache_keys[i], CanonicalForCache(**staged[i]));
      }
      result_cache_->Unpin(*cache_keys[i]);
    }
    for (const Dup& dup : dups) {
      // Prefer a real cache lookup (counts the hit and refreshes the LRU);
      // fall back to the leader's staged entry when nothing was published —
      // the leader failed, or another batch owned the key.
      if (std::shared_ptr<const QueryResult> hit =
              result_cache_->Lookup(*cache_keys[dup.index])) {
        staged[dup.index].emplace(ServeCopy(*hit, n));
        continue;
      }
      const Result<QueryResult>& leader = *staged[dup.leader];
      if (!leader.ok()) {
        staged[dup.index].emplace(leader.status());
      } else {
        staged[dup.index].emplace(ServeCopy(*leader, n));
      }
    }
  }

  std::vector<Result<QueryResult>> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!batched && staged[i]->ok()) {
      ClearBatchFields(&MutableTrace(&**staged[i]));
    }
    results.push_back(std::move(*staged[i]));
  }
  return results;
}

}  // namespace tsq::core
