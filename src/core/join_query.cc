#include "core/join_query.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/clock.h"
#include "core/polar_bounds.h"
#include "dft/spectrum.h"
#include "exec/parallel.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "rstar/join.h"
#include "transform/transform_mbr.h"
#include "ts/distance.h"

namespace tsq::core {

namespace {

// Fixed task granularity — chunk boundaries never depend on num_threads, so
// the merged output is identical for every thread count.
constexpr std::size_t kScanChunk = 256;  // outer sequence ids per scan task
constexpr std::size_t kPairChunk = 32;   // candidate pairs per verify task

Status ValidateSpec(const Dataset& dataset, const JoinQuerySpec& spec) {
  TSQ_RETURN_IF_ERROR(ValidateTransforms(dataset, spec.transforms));
  // Negated comparisons so NaN thresholds are rejected too: a NaN epsilon or
  // correlation would make every predicate false while silently reading the
  // whole relation.
  if (spec.mode == JoinMode::kDistance && !(spec.epsilon >= 0.0)) {
    return Status::InvalidArgument("negative or NaN distance threshold");
  }
  if (spec.mode == JoinMode::kCorrelation &&
      !std::isfinite(spec.min_correlation)) {
    return Status::InvalidArgument("non-finite correlation threshold");
  }
  return ValidatePartition(spec.partition, spec.transforms.size());
}

// True when the pair qualifies under `t`; sets `*value` to the correlation
// or distance accordingly.
bool EvaluatePair(const JoinQuerySpec& spec,
                  const transform::SpectralTransform& t,
                  std::span<const dft::Complex> x,
                  std::span<const dft::Complex> y, double* value) {
  if (spec.mode == JoinMode::kDistance) {
    const double eps2 = spec.epsilon * spec.epsilon;
    // Early-abandons against eps^2: qualifying pairs get the exact distance,
    // rejected ones may get an abandoned partial sum > eps^2, which the
    // strict predicate rejects identically (and *value is unused then).
    const double d2 = t.TransformedSquaredDistance(x, y, eps2);
    *value = std::sqrt(d2);
    return d2 < eps2;
  }
  *value = TransformedCorrelation(t, x, y);
  return *value >= spec.min_correlation;
}

}  // namespace

double JoinFilterEpsilon(const JoinQuerySpec& spec, std::size_t length) {
  if (spec.mode == JoinMode::kDistance) return spec.epsilon;
  return ts::CorrelationToDistanceThreshold(spec.min_correlation, length);
}

double TransformedCorrelation(const transform::SpectralTransform& t,
                              std::span<const dft::Complex> x,
                              std::span<const dft::Complex> y) {
  TSQ_CHECK_EQ(x.size(), t.length());
  TSQ_CHECK_EQ(y.size(), t.length());
  const std::size_t n = t.length();
  // One fused kernel pass over the interleaved components: per frequency,
  // Re(X conj(Y)) = xr*yr + xi*yi is exactly the component-wise dot, and the
  // |M_f|^2 gains are the transform's cached duplicated weights.
  const kernels::WeightedDotSums sums = kernels::WeightedDotEnergies(
      dft::AsDoubles(x), dft::AsDoubles(y), t.component_squared_magnitudes());
  if (sums.energy_x <= 0.0 || sums.energy_y <= 0.0) return 0.0;
  // Both transformed sequences are zero-mean (normal forms have X_0 = 0), so
  // sigma^2 = energy / (n-1) and rho = (dot/n) / (sigma_u * sigma_v).
  return (static_cast<double>(n) - 1.0) * sums.dot /
         (static_cast<double>(n) * std::sqrt(sums.energy_x * sums.energy_y));
}

Result<JoinQueryResult> RunJoinQuery(const Dataset& dataset,
                                     const SequenceIndex& index,
                                     const JoinQuerySpec& spec,
                                     const ExecOptions& options,
                                     const transform::Partition*
                                         partition_override) {
  const std::uint64_t query_start = MonotonicNanos();
  TSQ_RETURN_IF_ERROR(RejectUnresolvedAuto(options));
  TSQ_RETURN_IF_ERROR(ValidateSpec(dataset, spec));
  const transform::FeatureLayout& layout = dataset.layout();
  JoinQueryResult result;
  QueryStats& stats = result.stats;
  obs::QueryTrace& trace = result.trace;
  trace.algorithm = AlgorithmName(options.planner.algorithm);
  trace.num_threads = options.num_threads;
  trace.at(obs::Phase::kPlan)
      .AddTask(MonotonicNanos() - query_start, spec.transforms.size());

  if (options.planner.algorithm == Algorithm::kSequentialScan) {
    // A scan join touches every record anyway, so prefetch all spectra once
    // into one flat buffer (sequence i owns values [i·n, (i+1)·n); slices
    // write disjoint slots) and make the pairwise phase pure compute, fanned
    // out over fixed-size slices of the outer id.
    struct PrefetchPart {
      std::uint64_t record_pages = 0;  // pages read by this slice's fetches
      std::uint64_t fetched = 0;
      std::uint64_t nanos = 0;
    };
    const std::size_t n = dataset.length();
    std::vector<dft::Complex> spectra(dataset.size() * n);
    const auto spectrum_of = [&spectra, n](std::size_t i) {
      return std::span<dft::Complex>(spectra.data() + i * n, n);
    };
    const std::size_t slices = exec::ChunkCount(dataset.size(), kScanChunk);
    std::vector<PrefetchPart> prefetch(slices);
    TSQ_RETURN_IF_ERROR(exec::ParallelFor(
        options.num_threads, slices, [&](std::size_t task) -> Status {
          const exec::ChunkRange slice =
              exec::ChunkBounds(dataset.size(), kScanChunk, task);
          PrefetchPart& part = prefetch[task];
          const std::uint64_t start = MonotonicNanos();
          for (std::size_t i = slice.first; i < slice.last; ++i) {
            if (dataset.removed(i)) continue;
            TSQ_RETURN_IF_ERROR(dataset.FetchSpectrumInto(
                i, spectrum_of(i), &part.record_pages));
            ++part.fetched;
          }
          part.nanos = MonotonicNanos() - start;
          return Status::Ok();
        }));
    for (const PrefetchPart& part : prefetch) {
      stats.record_pages_read += part.record_pages;
      trace.at(obs::Phase::kCandidateFetch).AddTask(part.nanos, part.fetched);
    }

    struct ScanPart {
      std::vector<JoinMatch> matches;
      QueryStats stats;
      std::uint64_t nanos = 0;
    };
    std::vector<ScanPart> parts(slices);
    TSQ_RETURN_IF_ERROR(exec::ParallelFor(
        options.num_threads, slices, [&](std::size_t task) -> Status {
          const exec::ChunkRange slice =
              exec::ChunkBounds(dataset.size(), kScanChunk, task);
          ScanPart& part = parts[task];
          const std::uint64_t start = MonotonicNanos();
          for (std::size_t a = slice.first; a < slice.last; ++a) {
            if (dataset.removed(a)) continue;
            for (std::size_t b = a + 1; b < dataset.size(); ++b) {
              if (dataset.removed(b)) continue;
              ++part.stats.candidates;
              ++part.stats.verified_candidates;
              for (std::size_t t = 0; t < spec.transforms.size(); ++t) {
                ++part.stats.comparisons;
                double value = 0.0;
                if (EvaluatePair(spec, spec.transforms[t], spectrum_of(a),
                                 spectrum_of(b), &value)) {
                  part.matches.push_back(JoinMatch{a, b, t, value});
                }
              }
            }
          }
          part.nanos = MonotonicNanos() - start;
          return Status::Ok();
        }));
    const std::uint64_t merge_start = MonotonicNanos();
    for (ScanPart& part : parts) {
      result.matches.insert(result.matches.end(), part.matches.begin(),
                            part.matches.end());
      stats += part.stats;
      trace.at(obs::Phase::kVerification)
          .AddTask(part.nanos, part.stats.comparisons);
    }
    stats.output_size = result.matches.size();
    trace.at(obs::Phase::kMerge)
        .AddTask(MonotonicNanos() - merge_start, result.matches.size());
    trace.total_nanos = MonotonicNanos() - query_start;
    return result;
  }

  const transform::Partition partition =
      EffectivePartition(options.planner.algorithm, partition_override,
                         spec.partition, spec.transforms.size());

  std::vector<transform::FeatureTransform> feature_transforms;
  feature_transforms.reserve(spec.transforms.size());
  for (const transform::SpectralTransform& t : spec.transforms) {
    feature_transforms.push_back(t.ToFeatureTransform(layout));
  }

  const double filter_eps = JoinFilterEpsilon(spec, dataset.length());
  const double filter_eps2 = filter_eps * filter_eps;

  // Phase A — one self-join task per transformation rectangle, with the
  // rectangle applied to both node rectangles before the proximity test; the
  // rectangle application happens once per entry (the join's map), not
  // once per candidate pair. Each candidate pair then meets the rectangle's
  // feature-level bound, and only the pairs it cannot rule out go on to
  // verification. An id past the dataset comes from a damaged leaf and has
  // no stored coefficients; its pair is never pruned, so its fetch reports
  // OutOfRange.
  struct GroupPass {
    std::uint64_t candidates = 0;  // pairs passing the rectangle test
    std::vector<std::pair<std::size_t, std::size_t>> pairs;  // and the bound
    rstar::SearchStats index;
    std::uint64_t nanos = 0;
  };
  std::vector<GroupPass> passes(partition.size());
  TSQ_RETURN_IF_ERROR(exec::ParallelFor(
      options.num_threads, partition.size(), [&](std::size_t g) -> Status {
        GroupPass& pass = passes[g];
        const std::uint64_t start = MonotonicNanos();
        std::vector<transform::FeatureTransform> group_fts;
        group_fts.reserve(partition[g].size());
        for (const std::size_t t : partition[g]) {
          group_fts.push_back(feature_transforms[t]);
        }
        const transform::TransformMbr mbr(group_fts, layout);
        const PolarBound bound(layout, spec.transforms, partition[g],
                               TransformTarget::kBoth, {});
        const Status join_status = rstar::SelfJoin(
            index.tree(),
            [&](const rstar::RectView& r, rstar::Rect* out) {
              mbr.ApplyInto(r, out);
            },
            RectPairWithin(layout, filter_eps2),
            [&](std::uint64_t a, std::uint64_t b) {
              ++pass.candidates;
              if (a < dataset.size() && b < dataset.size() &&
                  bound.PrunesPair(dataset.coefficients(a),
                                   dataset.coefficients(b), filter_eps2)) {
                return;
              }
              pass.pairs.emplace_back(a, b);
            },
            &pass.index);
        pass.nanos = MonotonicNanos() - start;
        return join_status;
      }));

  // Phase B — verify candidate pairs in fixed-size chunks, group-major.
  // Each chunk keeps its own fetch cache (a page fetched by two chunks is
  // counted by both — the per-chunk cache is what a worker would actually
  // buffer): one flat scratch buffer with a slot per distinct id. The
  // ordered merge reproduces the sequential output.
  const std::size_t n = dataset.length();
  struct VerifyTask {
    std::size_t group_index = 0;
    exec::ChunkRange range;
  };
  std::vector<VerifyTask> tasks;
  for (std::size_t g = 0; g < passes.size(); ++g) {
    const std::size_t chunks =
        exec::ChunkCount(passes[g].pairs.size(), kPairChunk);
    for (std::size_t c = 0; c < chunks; ++c) {
      tasks.push_back(VerifyTask{
          g, exec::ChunkBounds(passes[g].pairs.size(), kPairChunk, c)});
    }
  }
  struct VerifyPart {
    std::vector<JoinMatch> matches;
    QueryStats stats;                // comparisons only
    std::uint64_t record_pages = 0;  // pages read by this task's fetches
    std::uint64_t fetched = 0;       // distinct spectra fetched by this task
    std::uint64_t fetch_nanos = 0;
    std::uint64_t verify_nanos = 0;
  };
  std::vector<VerifyPart> parts(tasks.size());
  TSQ_RETURN_IF_ERROR(exec::ParallelFor(
      options.num_threads, tasks.size(), [&](std::size_t ti) -> Status {
        const VerifyTask& task = tasks[ti];
        const GroupPass& pass = passes[task.group_index];
        const std::vector<std::size_t>& group = partition[task.group_index];
        VerifyPart& part = parts[ti];
        std::unordered_map<std::size_t, std::size_t> slot_of;  // id -> slot
        std::vector<dft::Complex> scratch;
        // At most two new ids per pair: sized once, never reallocated.
        scratch.reserve(2 * (task.range.last - task.range.first) * n);
        const auto fetch = [&](std::size_t id) -> Result<std::size_t> {
          const auto [it, inserted] = slot_of.emplace(id, slot_of.size());
          if (inserted) {
            scratch.resize(scratch.size() + n);
            TSQ_RETURN_IF_ERROR(dataset.FetchSpectrumInto(
                id, {scratch.data() + it->second * n, n},
                &part.record_pages));
            ++part.fetched;
          }
          return it->second;
        };
        for (std::size_t c = task.range.first; c < task.range.last; ++c) {
          const auto& [a, b] = pass.pairs[c];
          const std::uint64_t fetch_start = MonotonicNanos();
          const Result<std::size_t> slot_a = fetch(a);
          if (!slot_a.ok()) return slot_a.status();
          const Result<std::size_t> slot_b = fetch(b);
          if (!slot_b.ok()) return slot_b.status();
          const std::span<const dft::Complex> xa(scratch.data() + *slot_a * n,
                                                 n);
          const std::span<const dft::Complex> xb(scratch.data() + *slot_b * n,
                                                 n);
          const std::uint64_t verify_start = MonotonicNanos();
          for (const std::size_t t : group) {
            ++part.stats.comparisons;
            double value = 0.0;
            if (EvaluatePair(spec, spec.transforms[t], xa, xb, &value)) {
              part.matches.push_back(JoinMatch{a, b, t, value});
            }
          }
          part.fetch_nanos += verify_start - fetch_start;
          part.verify_nanos += MonotonicNanos() - verify_start;
        }
        return Status::Ok();
      }));

  const std::uint64_t merge_start = MonotonicNanos();
  for (VerifyPart& part : parts) {
    result.matches.insert(result.matches.end(), part.matches.begin(),
                          part.matches.end());
    stats += part.stats;
    stats.record_pages_read += part.record_pages;
    trace.at(obs::Phase::kCandidateFetch)
        .AddTask(part.fetch_nanos, part.fetched);
    trace.at(obs::Phase::kVerification)
        .AddTask(part.verify_nanos, part.stats.comparisons);
  }
  for (const GroupPass& pass : passes) {
    ++stats.traversals;
    stats.index_nodes_accessed += pass.index.nodes_accessed;
    stats.index_leaves_accessed += pass.index.leaf_nodes_accessed;
    stats.candidates += pass.candidates;
    stats.verified_candidates += pass.pairs.size();
    trace.at(obs::Phase::kIndexTraversal)
        .AddTask(pass.nanos, pass.index.nodes_accessed);
  }
  stats.output_size = result.matches.size();
  trace.at(obs::Phase::kMerge)
      .AddTask(MonotonicNanos() - merge_start, result.matches.size());
  trace.total_nanos = MonotonicNanos() - query_start;
  return result;
}

void SortJoinMatches(std::vector<JoinMatch>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const JoinMatch& x, const JoinMatch& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              return x.transform_index < y.transform_index;
            });
}

}  // namespace tsq::core
