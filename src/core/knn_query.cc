#include "core/knn_query.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "common/check.h"
#include "common/clock.h"
#include "core/feature.h"
#include "core/polar_bounds.h"
#include "exec/parallel.h"
#include "obs/trace.h"
#include "transform/transform_mbr.h"

namespace tsq::core {

namespace {

// Sequence ids per sequential-scan task; a constant, so the decomposition
// (and hence the merged output) never depends on num_threads.
constexpr std::size_t kScanChunk = 256;

// Distance-ascending order with series-id tie-break. Unlike a raw
// `a.distance < b.distance` on doubles, this is a strict weak ordering even
// when NaN distances slip in (a NaN compares last, ties within NaN broken by
// id) — sorting with the naive comparator is undefined behaviour the moment
// one distance is NaN.
bool KnnMatchOrder(const KnnMatch& a, const KnnMatch& b) {
  const bool a_nan = std::isnan(a.distance);
  const bool b_nan = std::isnan(b.distance);
  if (a_nan != b_nan) return b_nan;  // every number sorts before NaN
  if (!a_nan && a.distance != b.distance) return a.distance < b.distance;
  return a.series_id < b.series_id;
}

Status ValidateSpec(const Dataset& dataset, const KnnQuerySpec& spec) {
  TSQ_RETURN_IF_ERROR(ValidateQuerySeries(dataset, spec.query));
  TSQ_RETURN_IF_ERROR(ValidateTransforms(dataset, spec.transforms));
  TSQ_RETURN_IF_ERROR(ValidateQueryTransform(dataset, spec.query_transform));
  return ValidatePartition(spec.partition, spec.transforms.size());
}

// Best transformation for one candidate: (distance^2, transform index).
// Each evaluation abandons early once its partial sum exceeds both the
// running best and `bound` (the caller's current k-th-best distance). The
// result is exact — identical to the unbounded evaluation — whenever it is
// <= bound; a returned value > bound may be an abandoned partial sum, which
// is safe because the caller discards such candidates entirely.
std::pair<double, std::size_t> BestTransform(
    const KnnQuerySpec& spec, std::span<const dft::Complex> candidate,
    std::span<const dft::Complex> query, QueryStats* stats, double bound) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_t = 0;
  for (std::size_t t = 0; t < spec.transforms.size(); ++t) {
    ++stats->comparisons;
    const double limit = std::min(best, bound);
    const double d2 =
        spec.target == TransformTarget::kBoth
            ? spec.transforms[t].TransformedSquaredDistance(candidate, query,
                                                            limit)
            : spec.transforms[t].TransformedToPlainSquaredDistance(
                  candidate, query, limit);
    if (d2 < best) {
      best = d2;
      best_t = t;
    }
  }
  return {best, best_t};
}

}  // namespace

Result<KnnQueryResult> RunKnnQuery(const Dataset& dataset,
                                   const SequenceIndex& index,
                                   const KnnQuerySpec& spec,
                                   const ExecOptions& options,
                                   const transform::Partition*
                                       partition_override) {
  const std::uint64_t query_start = MonotonicNanos();
  TSQ_RETURN_IF_ERROR(RejectUnresolvedAuto(options));
  TSQ_RETURN_IF_ERROR(ValidateSpec(dataset, spec));
  const transform::FeatureLayout& layout = dataset.layout();
  const PreparedQuery query =
      PrepareQuery(dataset, spec.query, spec.query_transform);

  KnnQueryResult result;
  QueryStats& stats = result.stats;
  obs::QueryTrace& trace = result.trace;
  trace.algorithm = AlgorithmName(options.planner.algorithm);
  trace.num_threads = options.num_threads;
  trace.at(obs::Phase::kPlan)
      .AddTask(MonotonicNanos() - query_start, spec.transforms.size());

  if (options.planner.algorithm == Algorithm::kSequentialScan) {
    // One task per fixed-size slice; each evaluates its sequences exactly,
    // then the merged list is sorted and truncated — the same computation
    // the serial scan performs, in the same tie-break order.
    struct ScanPart {
      std::vector<KnnMatch> matches;
      QueryStats stats;
      std::uint64_t record_pages = 0;
      std::uint64_t fetch_nanos = 0;
      std::uint64_t verify_nanos = 0;
    };
    const std::size_t slices = exec::ChunkCount(dataset.size(), kScanChunk);
    std::vector<ScanPart> parts(slices);
    TSQ_RETURN_IF_ERROR(exec::ParallelFor(
        options.num_threads, slices, [&](std::size_t task) -> Status {
          const exec::ChunkRange slice =
              exec::ChunkBounds(dataset.size(), kScanChunk, task);
          ScanPart& part = parts[task];
          // Task-local k best exact distances; the heap top bounds the early
          // abandon. A candidate whose evaluation exceeds it has a true
          // distance strictly above this task's k-th best, hence strictly
          // above the global k-th best, so dropping it cannot change the
          // merged top k (strict ">" keeps distance ties, which are broken
          // by series id, intact). The slice decomposition is fixed by
          // kScanChunk, so results stay independent of num_threads.
          std::priority_queue<double> best_k;
          std::vector<dft::Complex> spectrum(dataset.length());  // scratch
          for (std::size_t i = slice.first; i < slice.last; ++i) {
            if (dataset.removed(i)) continue;
            const std::uint64_t fetch_start = MonotonicNanos();
            TSQ_RETURN_IF_ERROR(
                dataset.FetchSpectrumInto(i, spectrum, &part.record_pages));
            ++part.stats.candidates;
            const std::uint64_t verify_start = MonotonicNanos();
            const double bound =
                spec.k > 0 && best_k.size() == spec.k
                    ? best_k.top()
                    : std::numeric_limits<double>::infinity();
            const auto [d2, t] = BestTransform(spec, spectrum, query.spectrum,
                                               &part.stats, bound);
            if (!(d2 > bound)) {  // d2 <= bound is always exact
              part.matches.push_back(KnnMatch{i, t, std::sqrt(d2)});
              if (spec.k > 0) {
                if (best_k.size() < spec.k) {
                  best_k.push(d2);
                } else if (d2 < best_k.top()) {
                  best_k.pop();
                  best_k.push(d2);
                }
              }
            }
            part.fetch_nanos += verify_start - fetch_start;
            part.verify_nanos += MonotonicNanos() - verify_start;
          }
          return Status::Ok();
        }));
    const std::uint64_t merge_start = MonotonicNanos();
    std::vector<KnnMatch> all;
    for (ScanPart& part : parts) {
      all.insert(all.end(), part.matches.begin(), part.matches.end());
      stats += part.stats;
      stats.record_pages_read += part.record_pages;
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, part.stats.candidates);
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
    }
    std::sort(all.begin(), all.end(), KnnMatchOrder);
    if (all.size() > spec.k) all.resize(spec.k);
    result.matches = std::move(all);
    stats.verified_candidates = stats.candidates;
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - query_start;
    return result;
  }

  // Indexed path (ST-index = singleton rectangles, MT-index = grouped).
  const transform::Partition partition =
      EffectivePartition(options.planner.algorithm, partition_override,
                         spec.partition, spec.transforms.size());

  // Per group: the transformation MBR and the rect bounding the transformed
  // query's retained features.
  struct GroupBound {
    transform::TransformMbr mbr;
    rstar::Rect query_rect;
  };
  std::vector<GroupBound> groups;
  for (const std::vector<std::size_t>& group : partition) {
    std::vector<transform::FeatureTransform> fts;
    fts.reserve(group.size());
    for (const std::size_t t : group) {
      fts.push_back(spec.transforms[t].ToFeatureTransform(layout));
    }
    // Query region with zero expansion: the MBR of the transformed query
    // feature points (kBoth), or the plain query point (kDataOnly).
    const std::vector<transform::FeatureTransform> identity = {
        transform::FeatureTransform::Identity(layout.dimensions())};
    groups.push_back(GroupBound{
        transform::TransformMbr(fts, layout),
        BuildQueryRegion(query.features,
                         spec.target == TransformTarget::kBoth
                             ? std::span<const transform::FeatureTransform>(fts)
                             : std::span<const transform::FeatureTransform>(
                                   identity),
                         /*epsilon=*/0.0, layout)});
  }

  // Tree pages are keyed by the applied-rectangle bound, min over groups;
  // every group applies into one scratch rectangle.
  rstar::Rect applied;
  const auto page_bound = [&](const rstar::RectView& rect) {
    double best = std::numeric_limits<double>::infinity();
    for (const GroupBound& g : groups) {
      g.mbr.ApplyInto(rect, &applied);
      best = std::min(best, RectPairSquaredDistanceLowerBound(
                                applied, g.query_rect, layout));
    }
    return best;
  };
  // Leaf entries are keyed by the feature-level bound, min over every
  // transformation: each t is paired with itself and the indexed
  // coefficients are summed, which the applied rectangle cannot do. An id
  // past the dataset comes from a damaged leaf and has no stored
  // coefficients; it is keyed 0, so it surfaces first and its fetch reports
  // OutOfRange.
  std::vector<std::size_t> all_transforms(spec.transforms.size());
  std::iota(all_transforms.begin(), all_transforms.end(), std::size_t{0});
  const PolarBound entry_bound(layout, spec.transforms, all_transforms,
                               spec.target, query.coefficients);
  const auto entry_key = [&](std::uint64_t id) {
    return id < dataset.size() ? entry_bound.Min(dataset.coefficients(id))
                               : 0.0;
  };

  // Best-first search (Hjaltason-Samet): tree pages and unrefined leaf
  // entries enter the queue with their lower bound; an entry is refined
  // (record fetched, exact distance computed) only when it surfaces, so
  // entries that can never be among the k best are never fetched. When an
  // exact item surfaces, nothing unexplored can beat it.
  enum class Kind { kPage, kEntry, kExact };
  struct Item {
    double key;  // squared distance (bound or exact)
    Kind kind;
    std::uint64_t id;  // page id or series id
    std::size_t transform_index;
    bool operator>(const Item& other) const { return key > other.key; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  if (index.tree().size() > 0) {
    queue.push(Item{0.0, Kind::kPage, index.tree().root_page(), 0});
  }

  rstar::SearchStats search_stats;
  // The k best exact distances refined so far; the heap top bounds the early
  // abandon inside BestTransform. When a refinement exceeds it, k entries
  // with strictly smaller exact keys are already in the result or the queue,
  // every one of which surfaces first — so the abandoned entry can never be
  // popped before the search terminates and is dropped outright.
  std::priority_queue<double> refined_k;
  // The best-first loop is serial, so phase times are accumulated locally
  // and reported as one task each.
  std::uint64_t traversal_nanos = 0;
  std::uint64_t fetch_nanos = 0;
  std::uint64_t verify_nanos = 0;
  std::uint64_t merge_nanos = 0;
  // Scratch reused by every node read and record fetch of the loop.
  rstar::RStarTree::NodeView view;
  std::vector<dft::Complex> spectrum(dataset.length());
  while (!queue.empty() && result.matches.size() < spec.k) {
    const Item item = queue.top();
    queue.pop();
    switch (item.kind) {
      case Kind::kExact: {
        const std::uint64_t start = MonotonicNanos();
        result.matches.push_back(
            KnnMatch{item.id, item.transform_index, std::sqrt(item.key)});
        merge_nanos += MonotonicNanos() - start;
        break;
      }
      case Kind::kEntry: {
        const std::uint64_t fetch_start = MonotonicNanos();
        TSQ_RETURN_IF_ERROR(dataset.FetchSpectrumInto(
            item.id, spectrum, &stats.record_pages_read));
        ++stats.candidates;
        const std::uint64_t verify_start = MonotonicNanos();
        const double bound =
            spec.k > 0 && refined_k.size() == spec.k
                ? refined_k.top()
                : std::numeric_limits<double>::infinity();
        const auto [d2, t] =
            BestTransform(spec, spectrum, query.spectrum, &stats, bound);
        if (!(d2 > bound)) {  // d2 <= bound is always exact
          queue.push(Item{d2, Kind::kExact, item.id, t});
          if (spec.k > 0) {
            if (refined_k.size() < spec.k) {
              refined_k.push(d2);
            } else if (d2 < refined_k.top()) {
              refined_k.pop();
              refined_k.push(d2);
            }
          }
        }
        fetch_nanos += verify_start - fetch_start;
        verify_nanos += MonotonicNanos() - verify_start;
        break;
      }
      case Kind::kPage: {
        const std::uint64_t start = MonotonicNanos();
        TSQ_RETURN_IF_ERROR(index.tree().ReadNodeView(
            static_cast<storage::PageId>(item.id), &view, &search_stats));
        for (std::size_t i = 0; i < view.size(); ++i) {
          queue.push(view.is_leaf
                         ? Item{entry_key(view.ids[i]), Kind::kEntry,
                                view.ids[i], 0}
                         : Item{page_bound(view.rect(i)), Kind::kPage,
                                view.ids[i], 0});
        }
        traversal_nanos += MonotonicNanos() - start;
        break;
      }
    }
  }
  stats.index_nodes_accessed = search_stats.nodes_accessed;
  stats.index_leaves_accessed = search_stats.leaf_nodes_accessed;
  stats.verified_candidates = stats.candidates;
  stats.traversals = 1;
  stats.output_size = result.matches.size();
  trace.at(obs::Phase::kIndexTraversal)
      .AddTask(traversal_nanos, stats.index_nodes_accessed);
  trace.at(obs::Phase::kCandidateFetch).AddTask(fetch_nanos, stats.candidates);
  trace.at(obs::Phase::kVerification).AddTask(verify_nanos, stats.comparisons);
  trace.at(obs::Phase::kMerge).AddTask(merge_nanos, result.matches.size());
  trace.total_nanos = MonotonicNanos() - query_start;
  return result;
}

}  // namespace tsq::core
