#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "core/polar_bounds.h"
#include "transform/builders.h"
#include "transform/feature_transform.h"

namespace tsq::plan {

namespace {

// Upper bound on the rectangle count k the MT enumeration sweeps.
constexpr std::size_t kMaxRectangles = 16;

// Plans the LRU plan cache holds.
constexpr std::size_t kPlanCacheCapacity = 64;

// Points of the snapshot's sample that also stand in for the query when a
// range plan is priced.
constexpr std::size_t kQueryProxies = 16;

// Comparisons one verified candidate costs against a group of `count`
// transformations: count, or ~log2(count) probes under the dominance-chain
// ordering (Section 4.4).
double EffectiveComparisons(std::size_t count, bool use_ordering) {
  if (count == 0) return 0.0;
  if (!use_ordering) return static_cast<double>(count);
  return std::min(static_cast<double>(count),
                  std::floor(std::log2(static_cast<double>(count))) + 1.0);
}

// Safety check only (the executor re-validates properly): every index must
// be in range before the planner dereferences feature transforms with it.
bool PartitionIndicesInRange(const transform::Partition& partition,
                             std::size_t count) {
  for (const std::vector<std::size_t>& group : partition) {
    if (group.empty()) return false;
    for (const std::size_t t : group) {
      if (t >= count) return false;
    }
  }
  return true;
}

// C_cmp / C_DA measured on this host: one transformed squared distance
// over full spectra against one record-page fetch, simulated latency
// included. The probe pair is read from the record store; nullopt (keep the
// paper defaults) when the relation is too small or a fetch fails, e.g.
// under an injected fault.
std::optional<double> MeasureCmpToDaRatio(const core::Dataset& dataset) {
  if (dataset.size() < 2 || dataset.length() < 4) return std::nullopt;
  const Result<std::vector<dft::Complex>> x = dataset.FetchSpectrum(0);
  const Result<std::vector<dft::Complex>> y = dataset.FetchSpectrum(1);
  if (!x.ok() || !y.ok()) return std::nullopt;

  const transform::SpectralTransform probe = transform::MovingAverageTransform(
      dataset.length(), std::min<std::size_t>(10, dataset.length() - 1));
  constexpr std::size_t kCmpReps = 2048;
  double sink = 0.0;
  const std::uint64_t cmp_start = MonotonicNanos();
  for (std::size_t i = 0; i < kCmpReps; ++i) {
    sink += probe.TransformedSquaredDistance(*x, *y);
  }
  const double cmp_nanos =
      static_cast<double>(MonotonicNanos() - cmp_start) / kCmpReps;
  volatile double keep_alive = sink;  // the timed loop must not fold away
  (void)keep_alive;

  constexpr std::size_t kReadReps = 8;
  std::uint64_t pages = 0;
  const std::uint64_t read_start = MonotonicNanos();
  for (std::size_t i = 0; i < kReadReps; ++i) {
    const Result<std::vector<dft::Complex>> fetched =
        dataset.FetchSpectrum(0, &pages);
    (void)fetched;  // errors (injected faults) only spoil the timing
  }
  const std::uint64_t read_elapsed = MonotonicNanos() - read_start;
  if (pages == 0 || read_elapsed == 0 || cmp_nanos <= 0.0) return std::nullopt;
  const double read_nanos =
      static_cast<double>(read_elapsed) / static_cast<double>(pages);
  return std::clamp(cmp_nanos / read_nanos, 0.01, 10.0);
}

// What a range plan fetches, estimated on data. Each of kQueryProxies
// sequences of the snapshot's sample stands in for the query against every
// sampled sequence. The executor fetches exactly the candidates that the
// feature-level bound (core::PolarBound) admits under some transformation of
// their rectangle, so a rectangle G fetches the pairs admitted by some t in
// G. Only pairs some t admits are kept, each with the set of
// transformations that admit it (a bitset, any |T|), so pricing a
// rectangle costs O(admitted pairs).
class SurvivorSample {
 public:
  SurvivorSample(const core::TreeCostEstimator& estimator,
                 const core::Dataset& dataset,
                 std::span<const transform::SpectralTransform> transforms,
                 core::TransformTarget target, double epsilon)
      : words_((transforms.size() + 63) / 64) {
    // The sampled ids' stored coefficients, back to back. An id past the
    // dataset comes from a damaged leaf and has none; it is left out.
    std::vector<dft::Complex> cartesian;
    std::size_t points = 0;
    for (std::size_t s = 0; s < estimator.sample_size(); ++s) {
      const std::uint64_t id = estimator.sample_id(s);
      if (id >= dataset.size()) continue;
      const std::span<const dft::Complex> x = dataset.coefficients(id);
      cartesian.insert(cartesian.end(), x.begin(), x.end());
      ++points;
    }
    const std::size_t proxies = std::min(kQueryProxies, points);
    const std::size_t coefficients = dataset.layout().num_coefficients;
    pairs_ = proxies * points;
    std::vector<std::size_t> all(transforms.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const double eps2 = epsilon * epsilon;
    for (std::size_t p = 0; p < proxies; ++p) {
      // The proxies sit at an even stride over the sample.
      const std::span<const dft::Complex> proxy =
          std::span(cartesian).subspan(p * points / proxies * coefficients,
                                       coefficients);
      const core::PolarBound bound(dataset.layout(), transforms, all, target,
                                   proxy);
      bound.AppendAdmitSets(cartesian, points, eps2, &admits_);
    }
  }

  // Fraction of the sampled pairs that rectangle `group` fetches.
  double FetchedFraction(const std::vector<std::size_t>& group) const {
    if (pairs_ == 0) return 0.0;
    std::vector<std::uint64_t> mask(words_, 0);
    for (const std::size_t t : group) {
      mask[t / 64] |= std::uint64_t{1} << (t % 64);
    }
    std::size_t fetched = 0;
    for (std::size_t at = 0; at < admits_.size(); at += words_) {
      for (std::size_t w = 0; w < words_; ++w) {
        if ((admits_[at + w] & mask[w]) != 0) {
          ++fetched;
          break;
        }
      }
    }
    return static_cast<double>(fetched) / static_cast<double>(pairs_);
  }

 private:
  std::size_t words_;  // 64-bit words per admit set
  std::size_t pairs_ = 0;
  std::vector<std::uint64_t> admits_;  // words_ per admitted pair
};

Planned ForcedDecision(core::Algorithm algorithm) {
  auto decision = std::make_shared<PlanDecision>();
  decision->algorithm = algorithm;
  decision->trace.planned = false;
  return Planned{std::move(decision), false};
}

std::string GroupCountLabel(const char* family, std::size_t k) {
  char text[64];
  std::snprintf(text, sizeof text, "MT k=%zu %s", k, family);
  return text;
}

}  // namespace

Planner::Planner(const core::Dataset& dataset, const core::SequenceIndex& index)
    : dataset_(dataset), index_(index), cache_(kPlanCacheCapacity) {}

void Planner::BumpEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  ++epoch_;
  snapshot_.reset();
  cache_.Clear();
}

std::uint64_t Planner::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void Planner::InvalidateCalibration() {
  std::lock_guard<std::mutex> lock(mu_);
  calibrated_.reset();
  // Plans priced with the old constants are stale too.
  cache_.Clear();
}

Result<Planned> Planner::Plan(const core::RangeQuerySpec& spec,
                              const core::PlannerOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return PlanSpecLocked(spec, options);
}

Result<Planned> Planner::Plan(const core::KnnQuerySpec& spec,
                              const core::PlannerOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return PlanSpecLocked(spec, options);
}

Result<Planned> Planner::Plan(const core::JoinQuerySpec& spec,
                              const core::PlannerOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  return PlanSpecLocked(spec, options);
}

std::vector<Result<Planned>> Planner::PlanBatch(
    const std::vector<const core::QuerySpec*>& specs,
    const core::PlannerOptions& options) {
  std::vector<Result<Planned>> planned;
  planned.reserve(specs.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const core::QuerySpec* spec : specs) {
    planned.push_back(std::visit(
        [&](const auto& typed) { return PlanSpecLocked(typed, options); },
        *spec));
  }
  return planned;
}

Result<Planned> Planner::PlanSpecLocked(const core::RangeQuerySpec& spec,
                                        const core::PlannerOptions& options) {
  return PlanLocked(QueryKind::kRange, spec.transforms, spec.partition,
                    spec.epsilon, spec.use_ordering, spec.target, options);
}

Result<Planned> Planner::PlanSpecLocked(const core::KnnQuerySpec& spec,
                                        const core::PlannerOptions& options) {
  // The best-first search expands from distance 0 outward; epsilon 0 prices
  // the lower bound of its traversal, which is enough to rank partitions.
  // Its price does not sample the feature bound, so the target is moot.
  return PlanLocked(QueryKind::kKnn, spec.transforms, spec.partition,
                    /*epsilon=*/0.0, /*use_ordering=*/false,
                    core::TransformTarget::kBoth, options);
}

Result<Planned> Planner::PlanSpecLocked(const core::JoinQuerySpec& spec,
                                        const core::PlannerOptions& options) {
  return PlanLocked(QueryKind::kJoin, spec.transforms, spec.partition,
                    core::JoinFilterEpsilon(spec, dataset_.length()),
                    /*use_ordering=*/false, core::TransformTarget::kBoth,
                    options);
}

Result<const core::TreeCostEstimator*> Planner::SnapshotLocked() {
  if (!snapshot_.has_value() || snapshot_epoch_ != epoch_) {
    Result<core::TreeCostEstimator> created =
        core::TreeCostEstimator::Create(index_);
    if (!created.ok()) return created.status();
    snapshot_ = std::move(*created);
    snapshot_epoch_ = epoch_;
  }
  return &*snapshot_;
}

core::CostConstants Planner::CalibrateLocked() {
  if (calibrated_.has_value()) return *calibrated_;
  core::CostConstants constants;  // paper defaults: C_DA = 1, C_cmp = 0.4
  if (const std::optional<double> ratio = MeasureCmpToDaRatio(dataset_)) {
    constants.c_cmp = *ratio;
  }
  calibrated_ = constants;
  return constants;
}

Result<Planned> Planner::PlanLocked(
    QueryKind kind,
    const std::vector<transform::SpectralTransform>& transforms,
    const transform::Partition& spec_partition, double epsilon,
    bool use_ordering, core::TransformTarget target,
    const core::PlannerOptions& options) {
  if (options.algorithm != core::Algorithm::kAuto) {
    return ForcedDecision(options.algorithm);
  }
  const std::size_t count = transforms.size();
  // Malformed specs fall through to the executor, which owns the proper
  // validation diagnostics; planning them would dereference out of range.
  if (count == 0 || !std::isfinite(epsilon) || epsilon < 0.0 ||
      !PartitionIndicesInRange(spec_partition, count) ||
      std::any_of(transforms.begin(), transforms.end(),
                  [&](const transform::SpectralTransform& t) {
                    return t.length() != dataset_.length();
                  })) {
    return ForcedDecision(core::Algorithm::kMtIndex);
  }

  const core::CostConstants constants =
      options.cost_constants_override.has_value()
          ? *options.cost_constants_override
          : CalibrateLocked();

  // ---- Cache key: everything the decision below depends on. ----
  PlanKeyBuilder key;
  key.Add(static_cast<std::uint64_t>(kind));
  key.Add(epoch_);
  key.Add(count);
  for (const transform::SpectralTransform& t : transforms) {
    key.AddString(t.label());
    key.Add(t.length());
    for (std::size_t f = 0; f < t.length(); ++f) {
      const dft::Complex m = t.multiplier(f);
      key.AddDouble(m.real());
      key.AddDouble(m.imag());
    }
  }
  // Epsilon enters banded (quarter powers of two): near-identical thresholds
  // reuse one plan, which is the point of the cache.
  const std::int64_t band =
      epsilon <= 0.0
          ? std::numeric_limits<std::int64_t>::min()
          : static_cast<std::int64_t>(std::llround(std::log2(epsilon) * 4.0));
  key.Add(static_cast<std::uint64_t>(band));
  key.Add(use_ordering ? 1 : 0);
  key.Add(static_cast<std::uint64_t>(target));
  key.Add(spec_partition.size());
  for (const std::vector<std::size_t>& group : spec_partition) {
    key.Add(group.size());
    for (const std::size_t t : group) key.Add(t);
  }
  key.AddDouble(constants.c_da);
  key.AddDouble(constants.c_cmp);

  if (std::shared_ptr<const PlanDecision> cached = cache_.Lookup(key.key())) {
    return Planned{std::move(cached), true};
  }

  Result<const core::TreeCostEstimator*> snapshot = SnapshotLocked();
  if (!snapshot.ok()) return snapshot.status();
  const core::TreeCostEstimator& estimator = **snapshot;
  const transform::FeatureLayout& layout = dataset_.layout();

  std::vector<transform::FeatureTransform> feature_transforms;
  feature_transforms.reserve(count);
  for (const transform::SpectralTransform& t : transforms) {
    feature_transforms.push_back(t.ToFeatureTransform(layout));
  }

  const double active = static_cast<double>(dataset_.active_size());
  const double total_nodes = estimator.total_nodes();
  const double record_pages = static_cast<double>(dataset_.record_pages());
  // Record pages one candidate fetch touches, on average: a record of L
  // pages at an arbitrary offset touches 1 + L of them.
  const double pages_per_record =
      1.0 + (active > 0.0 ? record_pages / active : 0.0);

  // A range rectangle fetches and verifies only what the feature-level
  // bound admits, estimated on the snapshot's sample. The proxies stand in
  // for the query as it is: the estimate ignores the spec's
  // query_transform, as the analytic traversal estimate does.
  std::optional<SurvivorSample> survivors;
  if (kind == QueryKind::kRange) {
    survivors.emplace(estimator, dataset_, transforms, target, epsilon);
  }

  // Eq. 19 per-rectangle cost, summed over the partition (Eq. 20), plus the
  // candidate-fetch pages (every rectangle fetches its own candidates, so
  // over-splitting re-reads overlapping candidate sets — the term that
  // balances the tighter-rectangles-vs-more-traversals trade-off). A range
  // rectangle pays its traversal plus a fetch and nt comparisons per
  // sampled bound survivor; k-NN keeps the rectangle-test estimate at
  // epsilon 0. For self-joins the traversal is a spatial join, priced with
  // a coarse node-pair model (clamped by the tree size); its job is ranking
  // scan vs index and packed vs split partitions, not absolute accuracy.
  const auto price_partition =
      [&](const transform::Partition& partition) -> double {
    double total = 0.0;
    std::vector<transform::FeatureTransform> group_fts;
    for (const std::vector<std::size_t>& group : partition) {
      group_fts.clear();
      for (const std::size_t t : group) {
        group_fts.push_back(feature_transforms[t]);
      }
      const core::TreeCostEstimator::Estimate estimate =
          estimator.EstimateTraversal(group_fts, epsilon, layout);
      const double nt = EffectiveComparisons(group.size(), use_ordering);
      const double candidates =
          std::min(estimate.hit_fraction * estimator.indexed_points(), active);
      if (kind == QueryKind::kJoin) {
        const double da_pairs =
            std::min(estimate.da_all * (1.0 + estimate.da_leaf),
                     total_nodes * total_nodes);
        const double candidate_pairs =
            std::min(candidates * candidates, 0.5 * active * active);
        total += constants.c_da * da_pairs +
                 constants.c_cmp * candidate_pairs * nt;
      } else {
        const double fetched =
            survivors.has_value() ? active * survivors->FetchedFraction(group)
                                  : candidates;
        total += constants.c_da *
                     (estimate.da_all + fetched * pages_per_record) +
                 constants.c_cmp * fetched * nt;
      }
    }
    return total;
  };

  struct Candidate {
    core::Algorithm algorithm;
    transform::Partition partition;
    std::string label;
    double cost = 0.0;
  };
  std::vector<Candidate> candidates;

  // Sequential scan (Eq. 18): every record page once, then the predicate
  // against every live sequence — |T| times each (all pairs for a join).
  const double scan_evals =
      kind == QueryKind::kJoin
          ? 0.5 * active * (active - 1.0) * static_cast<double>(count)
          : active * EffectiveComparisons(count, use_ordering);
  candidates.push_back(Candidate{
      core::Algorithm::kSequentialScan,
      {},
      "seq-scan",
      constants.c_da * record_pages + constants.c_cmp * scan_evals});

  // ST-index: one traversal per transformation (singleton rectangles). The
  // executor derives the singleton partition itself, so none is attached.
  candidates.push_back(
      Candidate{core::Algorithm::kStIndex,
                {},
                "ST-index",
                price_partition(transform::PartitionSingletons(count))});

  if (!spec_partition.empty()) {
    // The caller pinned a partition: the only MT plan considered is theirs.
    candidates.push_back(
        Candidate{core::Algorithm::kMtIndex, spec_partition,
                  GroupCountLabel("spec", spec_partition.size()),
                  price_partition(spec_partition)});
  } else {
    const std::size_t k_max = std::min(count, kMaxRectangles);

    // The single packed rectangle (plain MT-index configuration).
    transform::Partition packed = transform::PartitionAll(count);
    const double packed_cost = price_partition(packed);
    candidates.push_back(Candidate{core::Algorithm::kMtIndex,
                                   std::move(packed),
                                   GroupCountLabel("packed", 1), packed_cost});

    // Contiguous equal splits into k groups (Section 5.2's sweep); k = count
    // would duplicate ST-index, so the sweep stops short of it.
    for (std::size_t k = 2; k <= k_max && k < count; ++k) {
      transform::Partition partition = transform::PartitionIntoGroups(count, k);
      const double cost = price_partition(partition);
      candidates.push_back(Candidate{core::Algorithm::kMtIndex,
                                     std::move(partition),
                                     GroupCountLabel("contiguous", k), cost});
    }

    // Cluster-aware partitions (the Fig. 9 fix): gap detection fixes the
    // cluster boundaries; sweeping the per-group cap over powers of two
    // varies how finely each cluster is split.
    std::vector<std::size_t> seen_counts;
    for (std::size_t target = 1; target <= k_max; target *= 2) {
      const std::size_t per_group = (count + target - 1) / target;
      transform::Partition partition =
          transform::PartitionByClusters(feature_transforms, per_group);
      const std::size_t k = partition.size();
      if (k == 0 || k >= count) continue;  // empty or ST duplicate
      if (std::find(seen_counts.begin(), seen_counts.end(), k) !=
          seen_counts.end()) {
        continue;
      }
      seen_counts.push_back(k);
      // A partition already priced (the packed one, or a contiguous split
      // the gaps reproduce) would only tie with it, and ties keep the
      // earlier candidate.
      if (std::any_of(candidates.begin(), candidates.end(),
                      [&](const Candidate& c) {
                        return c.partition == partition;
                      })) {
        continue;
      }
      const double cost = price_partition(partition);
      candidates.push_back(Candidate{core::Algorithm::kMtIndex,
                                     std::move(partition),
                                     GroupCountLabel("clustered", k), cost});
    }
  }

  // Cheapest wins; ties keep the earliest candidate, and the enumeration
  // order is fixed, so the decision is deterministic.
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].cost < candidates[best].cost) best = i;
  }

  auto decision = std::make_shared<PlanDecision>();
  decision->algorithm = candidates[best].algorithm;
  decision->partition = candidates[best].partition;
  decision->estimated_cost = candidates[best].cost;
  decision->constants = constants;
  decision->trace.planned = true;
  decision->trace.cache_hit = false;
  decision->trace.estimated_cost = candidates[best].cost;
  decision->trace.candidates.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    decision->trace.candidates.push_back(obs::PlanCandidateTrace{
        candidates[i].label, candidates[i].cost, i == best});
  }

  cache_.Insert(key.key(), decision);
  return Planned{std::move(decision), false};
}

}  // namespace tsq::plan
