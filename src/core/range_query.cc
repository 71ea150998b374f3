#include "core/range_query.h"

#include <algorithm>

#include "common/check.h"
#include "common/clock.h"
#include "obs/trace.h"
#include "exec/parallel.h"
#include "transform/ordering.h"
#include "transform/transform_mbr.h"
#include "ts/normal_form.h"

namespace tsq::core {

namespace range_detail {

bool OrderGroupByChain(const std::vector<std::size_t>& chain,
                       std::vector<std::size_t>* group) {
  if (chain.empty()) return false;
  std::vector<std::size_t> rank(chain.size());
  for (std::size_t pos = 0; pos < chain.size(); ++pos) rank[chain[pos]] = pos;
  std::sort(group->begin(), group->end(),
            [&rank](std::size_t a, std::size_t b) { return rank[a] < rank[b]; });
  return true;
}

double PredicateDistance2(const RangeQuerySpec& spec, std::size_t t,
                          std::span<const dft::Complex> candidate_spectrum,
                          std::span<const dft::Complex> query_spectrum) {
  return spec.target == TransformTarget::kBoth
             ? spec.transforms[t].TransformedSquaredDistance(
                   candidate_spectrum, query_spectrum)
             : spec.transforms[t].TransformedToPlainSquaredDistance(
                   candidate_spectrum, query_spectrum);
}

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

Status ValidateRangeSpec(const Dataset& dataset, const RangeQuerySpec& spec) {
  if (spec.query.size() != dataset.length()) {
    return Status::InvalidArgument("query length does not match dataset");
  }
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

}  // namespace range_detail

using range_detail::kScanChunk;
using range_detail::kVerifyChunk;
using range_detail::OrderGroupByChain;
using range_detail::PredicateDistance2;
using range_detail::ValidateRangeSpec;
using range_detail::VerifyCandidate;

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSequentialScan:
      return "seq-scan";
    case Algorithm::kStIndex:
      return "ST-index";
    case Algorithm::kMtIndex:
      return "MT-index";
    case Algorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

Status RejectUnresolvedAuto(const ExecOptions& options) {
  if (options.planner.algorithm == Algorithm::kAuto) {
    return Status::InvalidArgument(
        "Algorithm::kAuto must be resolved by SimilarityEngine::Execute; "
        "raw executors need a concrete algorithm");
  }
  return Status::Ok();
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  index_nodes_accessed += other.index_nodes_accessed;
  index_leaves_accessed += other.index_leaves_accessed;
  record_pages_read += other.record_pages_read;
  candidates += other.candidates;
  comparisons += other.comparisons;
  traversals += other.traversals;
  output_size += other.output_size;
  return *this;
}

Result<RangeQueryResult> RunRangeQuery(const Dataset& dataset,
                                       const SequenceIndex& index,
                                       const RangeQuerySpec& spec,
                                       const ExecOptions& options,
                                       std::vector<GroupRunStats>* group_stats,
                                       const transform::Partition*
                                           partition_override) {
  const std::uint64_t query_start = MonotonicNanos();
  TSQ_RETURN_IF_ERROR(RejectUnresolvedAuto(options));
  TSQ_RETURN_IF_ERROR(ValidateRangeSpec(dataset, spec));
  if (group_stats != nullptr) group_stats->clear();

  RangeQueryResult result;
  QueryStats& stats = result.stats;
  obs::QueryTrace& trace = result.trace;
  trace.algorithm = AlgorithmName(options.planner.algorithm);
  trace.num_threads = options.num_threads;

  std::uint64_t plan_start = MonotonicNanos();
  const transform::FeatureLayout& layout = dataset.layout();
  const ts::NormalForm query_normal = ts::Normalize(spec.query);
  std::vector<dft::Complex> query_spectrum =
      dataset.plan().Forward(query_normal.values);
  if (spec.query_transform.has_value()) {
    query_spectrum = spec.query_transform->ApplyToSpectrum(query_spectrum);
  }
  // Mean/stddev feature slots are never constrained by the query region, so
  // reusing the raw query statistics alongside a transformed spectrum is
  // sound.
  const rstar::Point query_features =
      ExtractFeatures(query_normal, query_spectrum, layout);

  // Dominance-chain ordering for the binary-search post-processing.
  std::vector<std::size_t> chain;
  if (spec.use_ordering) {
    chain = transform::DominanceChain(spec.transforms);
  }

  if (options.planner.algorithm == Algorithm::kSequentialScan) {
    std::vector<std::size_t> all(spec.transforms.size());
    for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;
    const bool ordered = spec.use_ordering && OrderGroupByChain(chain, &all);
    trace.at(obs::Phase::kPlan)
        .AddTask(MonotonicNanos() - plan_start, spec.transforms.size());

    // One task per fixed-size slice of the relation; each task accumulates
    // its own matches and counters (pages via the FetchSpectrumInto
    // out-param — buffer hits, tombstones and multi-page records are all
    // accounted as they actually happen), merged below in slice order.
    struct ScanPart {
      std::vector<Match> matches;
      QueryStats stats;
      std::uint64_t record_pages = 0;
      std::uint64_t fetch_nanos = 0;
      std::uint64_t verify_nanos = 0;
    };
    const std::size_t tasks = exec::ChunkCount(dataset.size(), kScanChunk);
    std::vector<ScanPart> parts(tasks);
    TSQ_RETURN_IF_ERROR(exec::ParallelFor(
        options.num_threads, tasks, [&](std::size_t task) -> Status {
          const exec::ChunkRange slice =
              exec::ChunkBounds(dataset.size(), kScanChunk, task);
          ScanPart& part = parts[task];
          std::vector<dft::Complex> spectrum(dataset.length());  // scratch
          for (std::size_t i = slice.first; i < slice.last; ++i) {
            if (dataset.removed(i)) continue;
            const std::uint64_t fetch_start = MonotonicNanos();
            const Status fetched =
                dataset.FetchSpectrumInto(i, spectrum, &part.record_pages);
            const std::uint64_t fetch_end = MonotonicNanos();
            part.fetch_nanos += fetch_end - fetch_start;
            if (!fetched.ok()) return fetched;
            ++part.stats.candidates;  // sequences actually evaluated
            VerifyCandidate(spec, spectrum, query_spectrum, all, ordered, i,
                            &part.matches, &part.stats);
            part.verify_nanos += MonotonicNanos() - fetch_end;
          }
          return Status::Ok();
        }));
    const std::uint64_t merge_start = MonotonicNanos();
    for (ScanPart& part : parts) {
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      stats.record_pages_read += part.record_pages;
      trace.at(obs::Phase::kCandidateFetch)
          .AddTask(part.fetch_nanos, part.stats.candidates);
      trace.at(obs::Phase::kVerification)
          .AddTask(part.verify_nanos, part.stats.comparisons);
    }
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - query_start;
    return result;
  }

  // Indexed algorithms: ST-index is MT-index with singleton rectangles. A
  // planner-chosen partition (the override) takes precedence over the
  // spec's; both lose to ST-index's fixed singleton grouping.
  transform::Partition partition;
  if (options.planner.algorithm == Algorithm::kStIndex) {
    partition = transform::PartitionSingletons(spec.transforms.size());
  } else if (partition_override != nullptr && !partition_override->empty()) {
    partition = *partition_override;
  } else if (spec.partition.empty()) {
    partition = transform::PartitionAll(spec.transforms.size());
  } else {
    partition = spec.partition;
  }

  // Feature-space projections of all transformations, built once.
  std::vector<transform::FeatureTransform> feature_transforms;
  feature_transforms.reserve(spec.transforms.size());
  for (const transform::SpectralTransform& t : spec.transforms) {
    feature_transforms.push_back(t.ToFeatureTransform(layout));
  }
  trace.at(obs::Phase::kPlan)
      .AddTask(MonotonicNanos() - plan_start, spec.transforms.size());

  // Phase A — one task per transformation rectangle: build the group MBR and
  // query region, run the index traversal (Algorithm 1, steps 3-4), keep the
  // candidates. Traversals only read tree pages, so they run concurrently.
  struct GroupPass {
    std::vector<std::size_t> group;  // chain-ordered when `ordered`
    bool ordered = false;
    std::vector<std::uint64_t> candidates;  // sequence ids
    rstar::SearchStats search;
    std::uint64_t nanos = 0;
  };
  std::vector<GroupPass> passes(partition.size());
  TSQ_RETURN_IF_ERROR(exec::ParallelFor(
      options.num_threads, partition.size(), [&](std::size_t g) -> Status {
        GroupPass& pass = passes[g];
        const std::uint64_t task_start = MonotonicNanos();
        pass.group = partition[g];
        pass.ordered =
            spec.use_ordering && OrderGroupByChain(chain, &pass.group);
        std::vector<transform::FeatureTransform> group_fts;
        group_fts.reserve(pass.group.size());
        for (const std::size_t t : pass.group) {
          group_fts.push_back(feature_transforms[t]);
        }
        const transform::TransformMbr mbr(group_fts, layout);
        // kBoth: the query region covers every transformed query image t(q).
        // kDataOnly: the query is compared untransformed, so the region is
        // the paper's literal step 2 — a safe window around q itself.
        const std::vector<transform::FeatureTransform> identity = {
            transform::FeatureTransform::Identity(layout.dimensions())};
        const rstar::Rect query_region = BuildQueryRegion(
            query_features,
            spec.target == TransformTarget::kBoth
                ? std::span<const transform::FeatureTransform>(group_fts)
                : std::span<const transform::FeatureTransform>(identity),
            spec.epsilon, layout);
        Status status = index.tree().Search(
            [&](const rstar::RectView& rect) {
              return mbr.AppliedIntersects(rect, query_region);
            },
            &pass.candidates, &pass.search);
        pass.nanos = MonotonicNanos() - task_start;
        return status;
      }));

  // Phase B — post-processing (step 5): fetch each candidate's full record
  // and apply every transformation of its rectangle. One task per fixed-size
  // candidate chunk; tasks are laid out group-major so the ordered merge
  // reproduces the sequential output exactly.
  struct VerifyTask {
    std::size_t group_index = 0;
    exec::ChunkRange range;
  };
  std::vector<VerifyTask> tasks;
  for (std::size_t g = 0; g < passes.size(); ++g) {
    const std::size_t chunks =
        exec::ChunkCount(passes[g].candidates.size(), kVerifyChunk);
    for (std::size_t c = 0; c < chunks; ++c) {
      tasks.push_back(VerifyTask{
          g, exec::ChunkBounds(passes[g].candidates.size(), kVerifyChunk, c)});
    }
  }
  struct VerifyPart {
    std::vector<Match> matches;
    QueryStats stats;                 // comparisons only
    std::uint64_t record_pages = 0;   // pages read by this task's fetches
    std::uint64_t fetch_nanos = 0;
    std::uint64_t verify_nanos = 0;
    std::uint64_t fetched = 0;        // candidates fetched by this task
  };
  std::vector<VerifyPart> parts(tasks.size());
  TSQ_RETURN_IF_ERROR(exec::ParallelFor(
      options.num_threads, tasks.size(), [&](std::size_t ti) -> Status {
        const VerifyTask& task = tasks[ti];
        const GroupPass& pass = passes[task.group_index];
        VerifyPart& part = parts[ti];
        std::vector<dft::Complex> spectrum(dataset.length());  // scratch
        for (std::size_t c = task.range.first; c < task.range.last; ++c) {
          const std::uint64_t id = pass.candidates[c];
          const std::uint64_t fetch_start = MonotonicNanos();
          const Status fetched =
              dataset.FetchSpectrumInto(id, spectrum, &part.record_pages);
          const std::uint64_t fetch_end = MonotonicNanos();
          part.fetch_nanos += fetch_end - fetch_start;
          if (!fetched.ok()) return fetched;
          ++part.fetched;
          VerifyCandidate(spec, spectrum, query_spectrum, pass.group,
                          pass.ordered, id, &part.matches, &part.stats);
          part.verify_nanos += MonotonicNanos() - fetch_end;
        }
        return Status::Ok();
      }));

  // Deterministic merge: task order is group-major chunk order.
  const std::uint64_t merge_start = MonotonicNanos();
  std::vector<std::uint64_t> group_record_reads(passes.size(), 0);
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    VerifyPart& part = parts[ti];
    result.matches.insert(result.matches.end(), part.matches.begin(),
                          part.matches.end());
    stats += part.stats;
    stats.record_pages_read += part.record_pages;
    group_record_reads[tasks[ti].group_index] += part.record_pages;
    trace.at(obs::Phase::kCandidateFetch)
        .AddTask(part.fetch_nanos, part.fetched);
    trace.at(obs::Phase::kVerification)
        .AddTask(part.verify_nanos, part.stats.comparisons);
  }
  for (std::size_t g = 0; g < passes.size(); ++g) {
    const GroupPass& pass = passes[g];
    ++stats.traversals;
    stats.index_nodes_accessed += pass.search.nodes_accessed;
    stats.index_leaves_accessed += pass.search.leaf_nodes_accessed;
    stats.candidates += pass.candidates.size();
    trace.at(obs::Phase::kIndexTraversal)
        .AddTask(pass.nanos, pass.search.nodes_accessed);
    if (group_stats != nullptr) {
      group_stats->push_back(GroupRunStats{
          pass.search.nodes_accessed + group_record_reads[g],
          pass.search.leaf_nodes_accessed, pass.group.size(),
          pass.candidates.size()});
    }
  }
  stats.output_size = result.matches.size();
  trace.at(obs::Phase::kMerge)
      .AddTask(MonotonicNanos() - merge_start, result.matches.size());
  trace.total_nanos = MonotonicNanos() - query_start;
  return result;
}

Result<RangeQueryResult> RunRangeQuery(const Dataset& dataset,
                                       const SequenceIndex& index,
                                       const RangeQuerySpec& spec,
                                       Algorithm algorithm,
                                       std::vector<GroupRunStats>* group_stats) {
  ExecOptions options;
  options.planner.algorithm = algorithm;
  options.num_threads = 1;
  options.collect_group_stats = group_stats != nullptr;
  return RunRangeQuery(dataset, index, spec, options, group_stats);
}

std::vector<Match> BruteForceRangeQuery(const Dataset& dataset,
                                        const RangeQuerySpec& spec) {
  TSQ_CHECK_EQ(spec.query.size(), dataset.length());
  const ts::NormalForm query_normal = ts::Normalize(spec.query);
  std::vector<dft::Complex> query_spectrum =
      dataset.plan().Forward(query_normal.values);
  if (spec.query_transform.has_value()) {
    query_spectrum = spec.query_transform->ApplyToSpectrum(query_spectrum);
  }
  const double eps2 = spec.epsilon * spec.epsilon;
  std::vector<Match> matches;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.removed(i)) continue;
    for (std::size_t t = 0; t < spec.transforms.size(); ++t) {
      const double d2 = PredicateDistance2(spec, t, dataset.spectrum(i),
                                           query_spectrum);
      if (d2 < eps2) matches.push_back(Match{i, t, std::sqrt(d2)});
    }
  }
  return matches;
}

void SortMatches(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.series_id != b.series_id) return a.series_id < b.series_id;
              return a.transform_index < b.transform_index;
            });
}

}  // namespace tsq::core
