// SimilarityEngine::ExecuteBatch: one snapshot pin and one planner
// consultation for a whole batch of queries, with work shared across the
// batch — grouped index traversals, a batch-scoped record-fetch table, and
// the snapshot-keyed result cache.
//
// The contract this file exists to keep: per-query *matches* are
// byte-identical to issuing the specs sequentially via Execute() at the same
// snapshot, for any thread count. Everything here is organized around that —
// the batch path reuses the solo executor's task decomposition
// (range_detail::kScanChunk / kVerifyChunk), its per-candidate evaluation
// (range_detail::VerifyCandidate) and its merge order, and the shared
// traversal is constructed so each member query's candidate list comes out
// exactly as its solo traversal would have produced it:
//
//  * the union predicate `any member: mbr.AppliedIntersects(rect, region_m)`
//    visits a superset of every member's solo node set (the predicate is a
//    disjunction containing the member's own test);
//  * TransformMbr::Apply is monotone in rect containment, so a leaf entry
//    passing member m's test implies every ancestor rect passes it too —
//    re-filtering the union traversal's collected entries with m's own test
//    therefore yields exactly m's solo candidate *set*;
//  * the traversal is a deterministic stack DFS, and union-only subtrees are
//    pushed/popped as contiguous blocks between m's subtrees, so the
//    relative order of m's entries is m's solo *order*.
//
// I/O attribution is deterministic by construction: the fetch table
// memoizes each record fetch (so a page is read once per batch) and records
// the pages it cost via FetchSpectrumInto's per-call out-param — never by
// diffing the shared PageFile counters, which is what makes the accounting
// immune to a concurrent ResetIoStats(). A serial post-pass then charges
// each fetched id's pages to the lowest-indexed successful query that
// requested it (queries in input order, each query's candidates in
// rect-major task order), which is thread-count independent because the
// candidate lists themselves are.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
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
#include "ts/normal_form.h"

namespace tsq::core {

namespace {

using range_detail::kScanChunk;
using range_detail::kVerifyChunk;
using range_detail::OrderGroupByChain;
using range_detail::ValidateRangeSpec;
using range_detail::VerifyCandidate;

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

/// Memoized record fetches for one batch: slot i holds sequence i's fetched
/// spectrum (or the error of the one attempted fetch) plus the physical
/// pages that single fetch read. The slot vector is sized once from the
/// pinned dataset and never resized, so concurrent Get() calls only race on
/// the per-slot once_flag. The fetch lands straight in the slot's buffer
/// (FetchSpectrumInto), and its page count comes from the out-param — a
/// per-call delta, not a shared-counter diff — so a ResetIoStats() racing
/// the batch cannot split or double the dedupe accounting.
class BatchFetchTable {
 public:
  explicit BatchFetchTable(const Dataset& dataset)
      : dataset_(dataset), slots_(dataset.size()) {}

  /// The memoized fetch of sequence `id` (first caller pays the I/O). The
  /// span stays valid for the table's lifetime.
  Result<std::span<const dft::Complex>> Get(std::size_t id) {
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
/// relation (scan). Subtask order is the solo executor's task order, which
/// is what makes the per-query merge reproduce solo output byte-for-byte.
struct VerifyRef {
  std::size_t rect = 0;  // unused for scans
  exec::ChunkRange range;
};

struct VerifyPart {
  std::vector<Match> matches;
  QueryStats stats;
  std::uint64_t fetch_nanos = 0;
  std::uint64_t verify_nanos = 0;
  std::uint64_t fetched = 0;  // candidates fetched (indexed trace items)
};

/// Everything one *executing* query carries through the batch (cache hits
/// and in-batch duplicates never build one of these).
struct QueryExec {
  enum class Kind { kScan, kIndexed, kKnn, kJoin };
  Kind kind = Kind::kScan;

  ExecOptions resolved;  // options.exec with the planner's algorithm
  std::shared_ptr<const plan::PlanDecision> decision;
  bool plan_cache_hit = false;
  const transform::Partition* partition_override = nullptr;

  // Range-query state (solo executor's plan phase, precomputed up front).
  const RangeQuerySpec* range = nullptr;
  transform::Partition partition;  // effective (indexed only)
  std::vector<dft::Complex> query_spectrum;
  rstar::Point query_features;
  std::vector<transform::FeatureTransform> feature_transforms;
  std::vector<std::vector<std::size_t>> rect_groups;  // chain-ordered copies
  std::vector<bool> rect_ordered;
  std::vector<std::size_t> scan_group;
  bool scan_ordered = false;
  std::uint64_t plan_nanos = 0;

  // Shared-traversal membership (indexed only).
  std::size_t group_id = 0;
  std::size_t member_index = 0;

  // Verification decomposition + per-subtask partial results.
  std::vector<VerifyRef> verify_tasks;
  std::vector<VerifyPart> parts;

  // Deterministic I/O attribution.
  std::uint64_t attributed_pages = 0;
  std::uint64_t requests = 0;
  std::uint64_t claims = 0;
  std::vector<std::uint64_t> rect_pages;  // per rect (indexed)
};

/// One rectangle of a shared traversal: the union search's hits (ids plus
/// their flat leaf coordinates, which the re-filter tests) and the
/// re-filtered per-member candidate id lists.
struct RectPass {
  std::vector<std::uint64_t> ids;
  std::vector<double> coords;
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

/// Stamps the fields every batched result carries, mirroring what
/// SimilarityEngine::Execute stamps after running a query.
void StampTrace(QueryResult* out, const SimilarityEngine& engine,
                std::uint64_t snapshot_version, std::uint64_t checkpoint_epoch,
                const plan::Planned* planned, std::size_t batch_size) {
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      out->value);
  (void)engine;
  trace.snapshot_version = snapshot_version;
  trace.checkpoint_epoch = checkpoint_epoch;
  trace.kernel_isa = kernels::IsaName(kernels::ActiveIsa());
  trace.batch_size = batch_size;
  if (planned != nullptr && planned->decision->trace.planned) {
    trace.planner = planned->decision->trace;
    trace.planner.cache_hit = planned->cache_hit;
    const QueryStats& stats = out->stats();
    trace.planner.actual_cost =
        planned->decision->constants.c_da *
            static_cast<double>(stats.disk_accesses()) +
        planned->decision->constants.c_cmp *
            static_cast<double>(stats.comparisons);
  }
}

/// Copies a cached (or leader's) result for serving, rewriting the batch
/// fields for the serving batch: the cached canonical copy has them zeroed,
/// and stale sharing data from the computing batch must not leak.
QueryResult ServeCopy(const QueryResult& canonical, std::size_t batch_size) {
  QueryResult out = canonical;
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      out.value);
  trace.batch_size = batch_size;
  trace.batch_group_queries = 0;
  trace.shared_traversal = false;
  trace.deduped_fetches = 0;
  trace.result_cache_hit = true;
  return out;
}

/// The canonical form a result is cached under: batch fields zeroed, so a
/// hit served into a later batch carries that batch's sharing data (none),
/// not the computing batch's.
std::shared_ptr<const QueryResult> CanonicalForCache(const QueryResult& out) {
  auto canonical = std::make_shared<QueryResult>(out);
  obs::QueryTrace& trace = std::visit(
      [](auto& result) -> obs::QueryTrace& { return result.trace; },
      canonical->value);
  trace.batch_size = 0;
  trace.batch_group_queries = 0;
  trace.shared_traversal = false;
  trace.deduped_fetches = 0;
  trace.result_cache_hit = false;
  return canonical;
}

}  // namespace

std::vector<Result<QueryResult>> SimilarityEngine::ExecuteBatch(
    const std::vector<QuerySpec>& specs, const BatchOptions& options) const {
  const BatchMetrics& metrics = BatchMetrics::Get();
  const std::uint64_t batch_start = MonotonicNanos();
  if (specs.empty()) return {};
  metrics.batches->Increment();
  metrics.queries->Increment(specs.size());
  const std::size_t n = specs.size();

  // One snapshot pin for the whole batch: every query sees the same
  // (dataset, index, plan epoch) triple, and its version keys the cache.
  const SnapshotManager::ReadPin pin = snapshots_.PinRead();
  const std::uint64_t snapshot_version = pin.version();
  const std::uint64_t checkpoint_epoch =
      checkpoint_epoch_.load(std::memory_order_relaxed);
  const std::uint64_t config_epoch =
      config_epoch_.load(std::memory_order_acquire);

  // One planner consultation (one mutex acquisition) for the whole batch.
  std::vector<const QuerySpec*> spec_ptrs;
  spec_ptrs.reserve(n);
  for (const QuerySpec& spec : specs) spec_ptrs.push_back(&spec);
  std::vector<Result<plan::Planned>> planned =
      planner_->PlanBatch(spec_ptrs, options.exec.planner);

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
          specs[i], options.exec, snapshot_version, config_epoch);
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

  // --- Per-query preparation (the solo executor's plan phase) --------------
  const transform::FeatureLayout& layout = dataset_->layout();
  std::vector<std::unique_ptr<QueryExec>> execs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (staged[i].has_value() || is_dup(i)) continue;
    if (!planned[i].ok()) {
      staged[i].emplace(planned[i].status());
      continue;
    }
    auto exec = std::make_unique<QueryExec>();
    exec->decision = planned[i]->decision;
    exec->plan_cache_hit = planned[i]->cache_hit;
    exec->resolved = options.exec;
    exec->resolved.planner.algorithm = exec->decision->algorithm;
    exec->partition_override =
        exec->decision->partition.empty() ? nullptr : &exec->decision->partition;

    const auto* range = std::get_if<RangeQuerySpec>(&specs[i]);
    if (range == nullptr) {
      exec->kind = std::holds_alternative<KnnQuerySpec>(specs[i])
                       ? QueryExec::Kind::kKnn
                       : QueryExec::Kind::kJoin;
      execs[i] = std::move(exec);
      continue;
    }

    // Range query: validate and precompute exactly what RunRangeQuery's
    // plan phase computes, so the verification below is the solo executor's
    // verbatim.
    const std::uint64_t plan_start = MonotonicNanos();
    if (const Status valid = ValidateRangeSpec(*dataset_, *range);
        !valid.ok()) {
      staged[i].emplace(valid);
      continue;
    }
    exec->range = range;
    const ts::NormalForm query_normal = ts::Normalize(range->query);
    exec->query_spectrum = dataset_->plan().Forward(query_normal.values);
    if (range->query_transform.has_value()) {
      exec->query_spectrum =
          range->query_transform->ApplyToSpectrum(exec->query_spectrum);
    }
    exec->query_features =
        ExtractFeatures(query_normal, exec->query_spectrum, layout);
    std::vector<std::size_t> chain;
    if (range->use_ordering) {
      chain = transform::DominanceChain(range->transforms);
    }

    if (exec->resolved.planner.algorithm == Algorithm::kSequentialScan) {
      exec->kind = QueryExec::Kind::kScan;
      exec->scan_group.resize(range->transforms.size());
      for (std::size_t t = 0; t < exec->scan_group.size(); ++t) {
        exec->scan_group[t] = t;
      }
      exec->scan_ordered =
          range->use_ordering && OrderGroupByChain(chain, &exec->scan_group);
      exec->plan_nanos = MonotonicNanos() - plan_start;
      execs[i] = std::move(exec);
      continue;
    }

    exec->kind = QueryExec::Kind::kIndexed;
    // Effective partition, replicating RunRangeQuery's precedence exactly.
    if (exec->resolved.planner.algorithm == Algorithm::kStIndex) {
      exec->partition =
          transform::PartitionSingletons(range->transforms.size());
    } else if (exec->partition_override != nullptr &&
               !exec->partition_override->empty()) {
      exec->partition = *exec->partition_override;
    } else if (range->partition.empty()) {
      exec->partition = transform::PartitionAll(range->transforms.size());
    } else {
      exec->partition = range->partition;
    }
    exec->feature_transforms.reserve(range->transforms.size());
    for (const transform::SpectralTransform& t : range->transforms) {
      exec->feature_transforms.push_back(t.ToFeatureTransform(layout));
    }
    exec->rect_groups.resize(exec->partition.size());
    exec->rect_ordered.resize(exec->partition.size());
    for (std::size_t g = 0; g < exec->partition.size(); ++g) {
      exec->rect_groups[g] = exec->partition[g];
      exec->rect_ordered[g] =
          range->use_ordering && OrderGroupByChain(chain, &exec->rect_groups[g]);
    }
    exec->plan_nanos = MonotonicNanos() - plan_start;
    execs[i] = std::move(exec);
  }

  // --- Shared-traversal grouping -------------------------------------------
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
      const plan::PlanKey signature =
          TraversalSignature(*execs[i]->range, execs[i]->partition);
      const auto [it, inserted] =
          group_for_signature.emplace(signature, groups.size());
      if (inserted) {
        groups.emplace_back();
        groups.back().rects.resize(execs[i]->partition.size());
      }
      execs[i]->group_id = it->second;
      execs[i]->member_index = groups[it->second].members.size();
      groups[it->second].members.push_back(i);
    }
  }

  // --- Phase A: shared index traversals ------------------------------------
  // One task per (group, rectangle). The union of the member regions drives
  // the descent; each collected entry is then re-tested per member, which
  // (by monotonicity, see the file comment) recovers each member's solo
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
          const std::vector<transform::FeatureTransform> identity = {
              transform::FeatureTransform::Identity(layout.dimensions())};
          // Per-member query regions (each member's own epsilon band and
          // target semantics; the MBR is common to the group).
          std::vector<rstar::Rect> regions;
          regions.reserve(group.members.size());
          for (const std::size_t member : group.members) {
            const QueryExec& q = *execs[member];
            regions.push_back(BuildQueryRegion(
                q.query_features,
                q.range->target == TransformTarget::kBoth
                    ? std::span<const transform::FeatureTransform>(group_fts)
                    : std::span<const transform::FeatureTransform>(identity),
                q.range->epsilon, layout));
          }
          pass.status = index_->tree().Search(
              [&](const rstar::RectView& rect) {
                for (const rstar::Rect& region : regions) {
                  if (mbr.AppliedIntersects(rect, region)) return true;
                }
                return false;
              },
              &pass.ids, &pass.search, &pass.coords);
          pass.member_candidates.resize(group.members.size());
          if (pass.status.ok()) {
            const std::size_t dims = index_->tree().dimensions();
            for (std::size_t h = 0; h < pass.ids.size(); ++h) {
              const rstar::RectView rect(pass.coords.data() + 2 * dims * h,
                                         dims);
              for (std::size_t m = 0; m < regions.size(); ++m) {
                if (mbr.AppliedIntersects(rect, regions[m])) {
                  pass.member_candidates[m].push_back(pass.ids[h]);
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
          group.status = pass.status;  // lowest rect index wins, like solo
          break;
        }
      }
      if (group.members.size() >= 2) {
        metrics.shared_traversals->Increment(group.rects.size());
      }
    }
  }

  // --- Phase B: verification through the batch fetch table -----------------
  // Subtask decomposition per query is the solo executor's: rect-major
  // kVerifyChunk chunks (indexed) or kScanChunk slices (scan). All queries'
  // subtasks run through one ParallelForBatch, so slow queries borrow
  // workers from fast ones; per-query statuses aggregate exactly as each
  // query's solo ParallelFor would have.
  BatchFetchTable fetch_table(*dataset_);
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
        if (q.kind == QueryExec::Kind::kScan) {
          for (std::size_t id = ref.range.first; id < ref.range.last; ++id) {
            if (dataset_->removed(id)) continue;
            const std::uint64_t fetch_start = MonotonicNanos();
            const Result<std::span<const dft::Complex>> spectrum =
                fetch_table.Get(id);
            const std::uint64_t fetch_end = MonotonicNanos();
            part.fetch_nanos += fetch_end - fetch_start;
            if (!spectrum.ok()) return spectrum.status();
            ++part.stats.candidates;
            VerifyCandidate(*q.range, *spectrum, q.query_spectrum,
                            q.scan_group, q.scan_ordered, id, &part.matches,
                            &part.stats);
            part.verify_nanos += MonotonicNanos() - fetch_end;
          }
          return Status::Ok();
        }
        const RectPass& pass = groups[q.group_id].rects[ref.rect];
        const std::vector<std::uint64_t>& candidates =
            pass.member_candidates[q.member_index];
        for (std::size_t c = ref.range.first; c < ref.range.last; ++c) {
          const std::uint64_t id = candidates[c];
          const std::uint64_t fetch_start = MonotonicNanos();
          const Result<std::span<const dft::Complex>> spectrum =
              fetch_table.Get(id);
          const std::uint64_t fetch_end = MonotonicNanos();
          part.fetch_nanos += fetch_end - fetch_start;
          if (!spectrum.ok()) return spectrum.status();
          ++part.fetched;
          VerifyCandidate(*q.range, *spectrum, q.query_spectrum,
                          q.rect_groups[ref.rect], q.rect_ordered[ref.rect],
                          id, &part.matches, &part.stats);
          part.verify_nanos += MonotonicNanos() - fetch_end;
        }
        return Status::Ok();
      });

  // --- Deterministic I/O attribution ---------------------------------------
  // Queries in input order; each query's fetched ids in its subtask order.
  // The first successful query to request an id is charged the physical
  // pages its one fetch read; later requests of the same id are the deduped
  // fetches. Failed queries are skipped entirely (their solo runs surface no
  // stats either), so every charge is backed by a completed fetch.
  {
    std::vector<bool> claimed(dataset_->size(), false);
    for (std::size_t i = 0; i < n; ++i) {
      if (execs[i] == nullptr) continue;
      QueryExec& q = *execs[i];
      if (q.kind == QueryExec::Kind::kKnn || q.kind == QueryExec::Kind::kJoin) {
        continue;
      }
      if (q.kind == QueryExec::Kind::kIndexed &&
          !groups[q.group_id].status.ok()) {
        continue;
      }
      if (!verify_status[i].ok()) continue;
      if (q.kind == QueryExec::Kind::kIndexed) {
        q.rect_pages.assign(groups[q.group_id].rects.size(), 0);
      }
      const auto request = [&](std::size_t id, std::size_t rect) {
        ++q.requests;
        if (!claimed[id]) {
          claimed[id] = true;
          ++q.claims;
          const std::uint64_t pages = fetch_table.pages(id);
          q.attributed_pages += pages;
          if (!q.rect_pages.empty()) q.rect_pages[rect] += pages;
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
    if (execs[i] == nullptr || staged[i].has_value()) continue;
    QueryExec& q = *execs[i];
    if (q.kind == QueryExec::Kind::kKnn || q.kind == QueryExec::Kind::kJoin) {
      continue;
    }
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
    for (std::size_t ti = 0; ti < q.parts.size(); ++ti) {
      VerifyPart& part = q.parts[ti];
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, q.kind == QueryExec::Kind::kScan
                                         ? part.stats.candidates
                                         : part.fetched);
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
    }
    stats.record_pages_read = q.attributed_pages;

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
        if (q.resolved.collect_group_stats) {
          out.group_stats.push_back(GroupRunStats{
              (leader ? pass.search.nodes_accessed : 0) + q.rect_pages[g],
              leader ? pass.search.leaf_nodes_accessed : 0,
              q.rect_groups[g].size(), member_count});
        }
      }
    }
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - batch_start;
    trace.deduped_fetches = q.requests - q.claims;
    out.value = std::move(result);
    StampTrace(&out, *this, snapshot_version, checkpoint_epoch,
               planned[i].ok() ? &*planned[i] : nullptr, n);
    staged[i].emplace(std::move(out));
  }

  // --- k-NN and join queries -----------------------------------------------
  // They run under the same pin with the batch's plan decisions (the point
  // of batching them is the shared pin + planner pass + result cache); their
  // executors keep their own solo internals.
  for (std::size_t i = 0; i < n; ++i) {
    if (execs[i] == nullptr || staged[i].has_value()) continue;
    QueryExec& q = *execs[i];
    if (q.kind != QueryExec::Kind::kKnn && q.kind != QueryExec::Kind::kJoin) {
      continue;
    }
    QueryResult out;
    if (q.kind == QueryExec::Kind::kKnn) {
      Result<KnnQueryResult> result =
          RunKnnQuery(*dataset_, *index_, std::get<KnnQuerySpec>(specs[i]),
                      q.resolved, q.partition_override);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    } else {
      Result<JoinQueryResult> result =
          RunJoinQuery(*dataset_, *index_, std::get<JoinQuerySpec>(specs[i]),
                       q.resolved, q.partition_override);
      if (!result.ok()) {
        staged[i].emplace(result.status());
        continue;
      }
      out.value = std::move(*result);
    }
    StampTrace(&out, *this, snapshot_version, checkpoint_epoch,
               planned[i].ok() ? &*planned[i] : nullptr, n);
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
    results.push_back(std::move(*staged[i]));
  }
  return results;
}

}  // namespace tsq::core
