#include "testing/workload_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/normal_form.h"

namespace tsq::testing {

namespace {

using transform::SpectralTransform;

/// Formats a double so the lexer parses back the identical value
/// (max_digits10 round-trip).
std::string Num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return std::string(buffer);
}

std::string Num(std::size_t v) { return std::to_string(v); }

/// One pipeline of the emitted query text plus its expansion, built with
/// exactly the argument values the compiler will reconstruct from the text.
struct PipelinePiece {
  std::string text;
  std::vector<SpectralTransform> transforms;
};

std::vector<SpectralTransform> MvRange(std::size_t n, std::size_t lo,
                                       std::size_t hi) {
  std::vector<SpectralTransform> out;
  for (std::size_t w = lo; w <= hi; ++w) {
    out.push_back(transform::MovingAverageTransform(n, w));
  }
  return out;
}

PipelinePiece MakeMvPiece(std::size_t n, std::size_t lo, std::size_t hi) {
  return PipelinePiece{"mv(" + Num(lo) + ".." + Num(hi) + ")",
                       MvRange(n, lo, hi)};
}

PipelinePiece MakeLwmaPiece(std::size_t n, std::size_t lo, std::size_t hi) {
  std::vector<SpectralTransform> out;
  for (std::size_t w = lo; w <= hi; ++w) {
    out.push_back(transform::LinearWeightedMovingAverageTransform(n, w));
  }
  return PipelinePiece{"lwma(" + Num(lo) + ".." + Num(hi) + ")",
                       std::move(out)};
}

/// momentum then shift(0..s) — Example 1.2's pipeline, composed per Eq. 11
/// exactly as the compiler composes factors (shift applied after momentum).
PipelinePiece MakeMomentumShiftPiece(std::size_t n, std::size_t max_shift) {
  std::vector<SpectralTransform> momentum;
  momentum.push_back(transform::MomentumTransform(n));
  std::vector<SpectralTransform> shifts;
  for (std::size_t s = 0; s <= max_shift; ++s) {
    shifts.push_back(transform::ShiftTransform(n, s));
  }
  return PipelinePiece{"momentum then shift(0.." + Num(max_shift) + ")",
                       transform::ComposeSpectralSets(momentum, shifts)};
}

/// invert then mv(lo..hi) — the second cluster of the Fig. 9 construction.
PipelinePiece MakeInvertedMvPiece(std::size_t n, std::size_t lo,
                                  std::size_t hi) {
  std::vector<SpectralTransform> invert;
  invert.push_back(transform::InvertTransform(n));
  return PipelinePiece{
      "invert then mv(" + Num(lo) + ".." + Num(hi) + ")",
      transform::ComposeSpectralSets(invert, MvRange(n, lo, hi))};
}

/// scale(2..last) — the compiler expands a double range by repeated
/// addition, so the programmatic twin must accumulate identically.
PipelinePiece MakeScalePiece(std::size_t n, std::size_t last) {
  std::vector<SpectralTransform> out;
  for (double a = 2.0; a <= static_cast<double>(last) + 1e-9; a += 1.0) {
    out.push_back(transform::ScaleTransform(n, a));
  }
  return PipelinePiece{"scale(2.." + Num(last) + ")", std::move(out)};
}

PipelinePiece MakeEmaPiece(double alpha) {
  // Alphas come from an exact-binary-fraction table, so the printed literal
  // parses back bit-identical.
  return PipelinePiece{"ema(" + Num(alpha) + ")", {}};
}

/// A boundary-free threshold admitting roughly `want` of the ascending
/// `curve`: the midpoint of a clearly separated gap near rank `want`.
/// Returns the fallback (match everything) when no clean gap exists.
double PickAscendingThreshold(const std::vector<double>& curve,
                              std::size_t want) {
  if (curve.empty()) return 1.0;
  if (curve.size() == 1) return curve[0] + 1.0;
  want = std::clamp<std::size_t>(want, 1, curve.size() - 1);
  for (std::size_t off = 0; off < curve.size(); ++off) {
    for (const std::size_t j : {want - off, want + off}) {
      if (j < 1 || j > curve.size() - 1) continue;
      const double gap = curve[j] - curve[j - 1];
      if (gap > 1e-7 * (1.0 + std::fabs(curve[j]))) {
        return curve[j - 1] + gap / 2.0;
      }
    }
  }
  return curve.back() * 2.0 + 1.0;
}

/// Same idea for a descending correlation curve: a min_correlation strictly
/// inside a clean gap, admitting roughly `want` pairs. Returns 2.0 (match
/// nothing is unsafe; caller treats > 1.0 as "no clean gap") — callers fall
/// back to matching everything.
double PickDescendingThreshold(const std::vector<double>& curve,
                               std::size_t want) {
  if (curve.empty()) return -2.0;
  if (curve.size() == 1) return curve[0] - 0.5;
  want = std::clamp<std::size_t>(want, 1, curve.size() - 1);
  for (std::size_t off = 0; off < curve.size(); ++off) {
    for (const std::size_t j : {want - off, want + off}) {
      if (j < 1 || j > curve.size() - 1) continue;
      const double gap = curve[j - 1] - curve[j];
      if (gap > 1e-7 * (1.0 + std::fabs(curve[j]))) {
        return curve[j] + gap / 2.0;
      }
    }
  }
  return curve.back() - 1.0;
}

/// A boundary-free k for the ascending k-NN distance `curve`: a random rank
/// in [1, 8], nudged to one whose distance gap is clean, so the cut between
/// the k-th and (k+1)-th neighbour cannot flip on floating-point noise.
std::size_t PickK(Rng& rng, const std::vector<double>& curve) {
  const std::size_t kmax = std::min<std::size_t>(8, curve.size());
  std::size_t k = 1 + static_cast<std::size_t>(rng.UniformInt(
      0, static_cast<std::int64_t>(kmax) - 1));
  for (std::size_t off = 0; off < kmax; ++off) {
    for (const std::size_t cand : {k - off, k + off}) {
      if (cand < 1 || cand > kmax) continue;
      if (cand == curve.size() ||
          curve[cand] - curve[cand - 1] >
              1e-7 * (1.0 + std::fabs(curve[cand]))) {
        return cand;
      }
    }
  }
  return k;
}

struct GroupingChoice {
  std::string text;  // "" for the default single-MBR grouping
  transform::Partition partition;
};

/// Mirrors lang::Compile's make_partition for each grouping keyword.
GroupingChoice PickGrouping(Rng& rng, const core::SimilarityEngine& engine,
                            std::span<const SpectralTransform> transforms) {
  const std::size_t count = transforms.size();
  GroupingChoice choice;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      break;  // default: one MBR for all transformations
    case 1: {
      const std::size_t groups = static_cast<std::size_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(std::min<std::size_t>(4, count))));
      choice.text = " groups " + Num(groups);
      choice.partition = transform::PartitionIntoGroups(count, groups);
      break;
    }
    case 2: {
      const std::size_t per = static_cast<std::size_t>(
          rng.UniformInt(1, static_cast<std::int64_t>(std::min<std::size_t>(6, count))));
      choice.text = " per_mbr " + Num(per);
      choice.partition = transform::PartitionBySize(count, per);
      break;
    }
    case 3: {
      std::vector<transform::FeatureTransform> fts;
      fts.reserve(count);
      for (const SpectralTransform& t : transforms) {
        fts.push_back(t.ToFeatureTransform(engine.dataset().layout()));
      }
      choice.text = " clustered";
      choice.partition = transform::PartitionByClusters(fts, 8);
      break;
    }
  }
  return choice;
}

std::string AlgorithmSuffix(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 1:
      return " using mt";
    case 2:
      return " using st";
    case 3:
      return " using scan";
    case 4:
      return " using auto";
    default:
      return "";
  }
}

/// The transformation-set menu shared by range and k-NN cases.
struct TransformMenu {
  std::vector<PipelinePiece> pieces;
  core::TransformTarget target = core::TransformTarget::kBoth;
  bool ordered = false;  // scale chains only (dominance chain, Section 4.4)
};

TransformMenu PickPointQueryMenu(Rng& rng, std::size_t n, bool allow_ordered) {
  TransformMenu menu;
  switch (rng.UniformInt(0, 6)) {
    case 0: {
      const std::size_t lo = 1 + static_cast<std::size_t>(rng.UniformInt(0, 2));
      const std::size_t hi =
          std::min(lo + 4 + static_cast<std::size_t>(rng.UniformInt(0, 8)), n);
      menu.pieces.push_back(MakeMvPiece(n, lo, hi));
      break;
    }
    case 1: {
      const std::size_t max_shift = static_cast<std::size_t>(rng.UniformInt(
          2, static_cast<std::int64_t>(std::min<std::size_t>(8, n - 1))));
      menu.pieces.push_back(MakeMomentumShiftPiece(n, max_shift));
      menu.target = core::TransformTarget::kDataOnly;
      break;
    }
    case 2: {
      // Two well-separated clusters (Fig. 9): a moving-average ramp and its
      // inverted copy.
      const std::size_t lo = 2 + static_cast<std::size_t>(rng.UniformInt(0, 2));
      const std::size_t hi =
          std::min(lo + 3 + static_cast<std::size_t>(rng.UniformInt(0, 4)), n);
      menu.pieces.push_back(MakeMvPiece(n, lo, hi));
      menu.pieces.push_back(MakeInvertedMvPiece(n, lo, hi));
      break;
    }
    case 3: {
      const std::size_t last =
          4 + static_cast<std::size_t>(rng.UniformInt(0, 6));
      menu.pieces.push_back(MakeScalePiece(n, last));
      menu.ordered = allow_ordered && rng.Bernoulli(0.6);
      break;
    }
    case 4: {
      const std::size_t lo = 1 + static_cast<std::size_t>(rng.UniformInt(0, 2));
      const std::size_t hi =
          std::min(lo + 3 + static_cast<std::size_t>(rng.UniformInt(0, 5)), n);
      menu.pieces.push_back(MakeLwmaPiece(n, lo, hi));
      break;
    }
    case 5: {
      static constexpr double kAlphas[] = {0.125, 0.25, 0.375, 0.5,
                                           0.625, 0.75};
      const std::size_t count =
          2 + static_cast<std::size_t>(rng.UniformInt(0, 1));
      const std::size_t start =
          static_cast<std::size_t>(rng.UniformInt(0, 2));
      for (std::size_t i = 0; i < count; ++i) {
        PipelinePiece piece = MakeEmaPiece(kAlphas[start + i]);
        piece.transforms.push_back(
            transform::ExponentialMovingAverageTransform(n,
                                                         kAlphas[start + i]));
        menu.pieces.push_back(std::move(piece));
      }
      break;
    }
    case 6: {
      const std::size_t low = static_cast<std::size_t>(rng.UniformInt(0, 1));
      const std::size_t high = std::min(
          low + 1 + static_cast<std::size_t>(rng.UniformInt(0, 5)), n / 2);
      menu.pieces.push_back(
          PipelinePiece{"band(" + Num(low) + ", " + Num(high) + ")",
                        {transform::BandPassTransform(n, low, high)}});
      menu.pieces.push_back(PipelinePiece{
          "diff2", {transform::SecondDifferenceTransform(n)}});
      menu.pieces.push_back(
          PipelinePiece{"identity", {SpectralTransform::Identity(n)}});
      break;
    }
  }
  return menu;
}

TransformMenu PickJoinMenu(Rng& rng, std::size_t n) {
  // Joins evaluate every pair, so their transformation sets stay small.
  TransformMenu menu;
  switch (rng.UniformInt(0, 3)) {
    case 0: {
      const std::size_t lo = 2 + static_cast<std::size_t>(rng.UniformInt(0, 3));
      const std::size_t hi =
          std::min(lo + 1 + static_cast<std::size_t>(rng.UniformInt(0, 3)), n);
      menu.pieces.push_back(MakeMvPiece(n, lo, hi));
      break;
    }
    case 1: {
      menu.pieces.push_back(
          PipelinePiece{"momentum", {transform::MomentumTransform(n)}});
      menu.pieces.push_back(PipelinePiece{
          "diff2", {transform::SecondDifferenceTransform(n)}});
      break;
    }
    case 2: {
      const std::size_t lo = 3 + static_cast<std::size_t>(rng.UniformInt(0, 2));
      const std::size_t hi = std::min(lo + 1, n);
      menu.pieces.push_back(MakeMvPiece(n, lo, hi));
      menu.pieces.push_back(MakeInvertedMvPiece(n, lo, hi));
      break;
    }
    case 3: {
      const std::size_t w = 3 + static_cast<std::size_t>(rng.UniformInt(0, 4));
      menu.pieces.push_back(
          PipelinePiece{"identity", {SpectralTransform::Identity(n)}});
      menu.pieces.push_back(
          PipelinePiece{"mv(" + Num(std::min(w, n)) + ")",
                        {transform::MovingAverageTransform(n, std::min(w, n))}});
      break;
    }
  }
  return menu;
}

std::vector<SpectralTransform> FlattenMenu(const TransformMenu& menu) {
  std::vector<SpectralTransform> all;
  for (const PipelinePiece& piece : menu.pieces) {
    for (const SpectralTransform& t : piece.transforms) all.push_back(t);
  }
  return all;
}

std::string JoinPipelineTexts(const TransformMenu& menu) {
  std::string out;
  for (std::size_t i = 0; i < menu.pieces.size(); ++i) {
    if (i > 0) out += ", ";
    out += menu.pieces[i].text;
  }
  return out;
}

std::vector<std::size_t> LiveIds(const core::Dataset& dataset) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (!dataset.removed(i)) live.push_back(i);
  }
  return live;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(std::uint64_t seed) : seed_(seed) {}

ts::StockMarketConfig WorkloadGenerator::dataset_config() const {
  ts::StockMarketConfig config;
  config.num_series = 40 + 16 * (seed_ % 3);
  static constexpr std::size_t kLengths[] = {16, 32, 64};
  config.length = kLengths[(seed_ / 3) % 3];
  config.num_sectors = 8;
  // Tighter idiosyncratic-volatility floor than the default so every seed
  // has a few highly correlated pairs (non-trivial joins at high rho).
  config.idio_vol_min = 0.0005;
  config.seed = seed_ * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  return config;
}

std::vector<ts::Series> WorkloadGenerator::MakeSeries() const {
  return ts::GenerateStockMarket(dataset_config());
}

WorkloadCase WorkloadGenerator::MakeCase(std::size_t index,
                                         const core::SimilarityEngine& engine,
                                         const Oracle& oracle) const {
  Rng rng(seed_ * 1000003ull + index * 7919ull + 17ull);
  const std::size_t n = engine.length();
  const std::vector<std::size_t> live = LiveIds(engine.dataset());
  TSQ_CHECK(!live.empty());
  const std::size_t kind = index % 3;

  WorkloadCase out;
  std::ostringstream desc;

  if (kind == 0 || kind == 1) {
    const std::size_t series_id =
        live[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1))];
    // The compiler resolves "series N" through the normal form, so the
    // programmatic twin must take the identical denormalized series.
    const ts::Series query =
        ts::Denormalize(engine.dataset().normal(series_id));
    TransformMenu menu = PickPointQueryMenu(rng, n, /*allow_ordered=*/kind == 0);
    std::vector<SpectralTransform> transforms = FlattenMenu(menu);
    const GroupingChoice grouping = PickGrouping(rng, engine, transforms);
    const std::string algorithm_text = AlgorithmSuffix(rng);
    const std::string apply_text =
        menu.target == core::TransformTarget::kDataOnly ? " apply data" : "";

    if (kind == 0) {
      core::RangeQuerySpec spec;
      spec.query = query;
      spec.transforms = std::move(transforms);
      spec.partition = grouping.partition;
      spec.target = menu.target;
      spec.use_ordering = menu.ordered;
      const std::size_t want = 1 + static_cast<std::size_t>(
          rng.UniformInt(0, 39));
      spec.epsilon = PickAscendingThreshold(oracle.RangeDistances(spec), want);
      out.lang_text = "find similar to series " + Num(series_id) + " under " +
                      JoinPipelineTexts(menu) + " within distance " +
                      Num(spec.epsilon) + algorithm_text + apply_text +
                      grouping.text + (menu.ordered ? " ordered" : "");
      desc << "range series=" << series_id << " T=" << spec.transforms.size()
           << " eps=" << spec.epsilon;
      out.spec = std::move(spec);
    } else {
      core::KnnQuerySpec spec;
      spec.query = query;
      spec.transforms = std::move(transforms);
      spec.partition = grouping.partition;
      spec.target = menu.target;
      spec.k = 1;
      const std::size_t k = PickK(rng, oracle.KnnDistanceCurve(spec));
      spec.k = k;
      out.lang_text = "find " + Num(k) + " nearest to series " +
                      Num(series_id) + " under " + JoinPipelineTexts(menu) +
                      algorithm_text + apply_text + grouping.text;
      desc << "knn series=" << series_id << " T=" << spec.transforms.size()
           << " k=" << k;
      out.spec = std::move(spec);
    }
  } else {
    TransformMenu menu = PickJoinMenu(rng, n);
    std::vector<SpectralTransform> transforms = FlattenMenu(menu);
    const GroupingChoice grouping = PickGrouping(rng, engine, transforms);
    const std::string algorithm_text = AlgorithmSuffix(rng);

    core::JoinQuerySpec spec;
    spec.transforms = std::move(transforms);
    spec.partition = grouping.partition;
    const bool correlation = rng.Bernoulli(0.4);
    spec.mode = correlation ? core::JoinMode::kCorrelation
                            : core::JoinMode::kDistance;
    const std::vector<double> values = oracle.JoinValues(spec);
    std::string threshold_text;
    if (correlation) {
      const std::size_t want = 1 + static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(
                 std::min<std::size_t>(20, std::max<std::size_t>(
                                               values.size(), 2) - 1)) - 1));
      spec.min_correlation = PickDescendingThreshold(values, want);
      threshold_text = " within correlation " + Num(spec.min_correlation);
    } else {
      const std::size_t want = 1 + static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(
                 std::min<std::size_t>(25, std::max<std::size_t>(
                                               values.size(), 2) - 1)) - 1));
      spec.epsilon = PickAscendingThreshold(values, want);
      threshold_text = " within distance " + Num(spec.epsilon);
    }
    out.lang_text = "find pairs under " + JoinPipelineTexts(menu) +
                    threshold_text + algorithm_text + grouping.text;
    desc << "join " << (correlation ? "rho>=" : "eps=")
         << (correlation ? spec.min_correlation : spec.epsilon)
         << " T=" << spec.transforms.size();
    out.spec = std::move(spec);
  }

  desc << " | " << out.lang_text;
  out.description = desc.str();
  return out;
}

WorkloadCase WorkloadGenerator::MakeQueryTransformCase(
    std::size_t index, const core::SimilarityEngine& engine,
    const Oracle& oracle) const {
  // A stream of its own, disjoint from MakeCase's seeds.
  Rng rng(seed_ * 2654435761ull + index * 40503ull + 0x5157ull);
  const std::size_t n = engine.length();
  const std::vector<std::size_t> live = LiveIds(engine.dataset());
  TSQ_CHECK(!live.empty());
  const std::size_t series_id =
      live[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1))];
  const ts::Series query = ts::Denormalize(engine.dataset().normal(series_id));

  std::ostringstream desc;
  std::vector<SpectralTransform> transforms;
  SpectralTransform query_transform = SpectralTransform::Identity(n);
  core::TransformTarget target = core::TransformTarget::kBoth;
  if (rng.Bernoulli(0.5)) {
    // Example 1.2: D(shift_s(momentum(x)), momentum(q)).
    const std::size_t max_shift = static_cast<std::size_t>(rng.UniformInt(
        2, static_cast<std::int64_t>(std::min<std::size_t>(8, n - 1))));
    transforms = MakeMomentumShiftPiece(n, max_shift).transforms;
    query_transform = transform::MomentumTransform(n);
    target = core::TransformTarget::kDataOnly;
    desc << "momentum(q) vs momentum then shift(0.." << max_shift << ")";
  } else {
    const std::size_t w = 2 + static_cast<std::size_t>(rng.UniformInt(0, 6));
    const std::size_t lo = 1 + static_cast<std::size_t>(rng.UniformInt(0, 3));
    const std::size_t hi =
        std::min(lo + 2 + static_cast<std::size_t>(rng.UniformInt(0, 8)), n);
    transforms = MvRange(n, lo, hi);
    query_transform = transform::MovingAverageTransform(n, std::min(w, n));
    desc << "mv(" << std::min(w, n) << ")(q) vs mv(" << lo << ".." << hi
         << ")";
  }
  const GroupingChoice grouping = PickGrouping(rng, engine, transforms);

  WorkloadCase out;
  if (index % 2 == 0) {
    core::RangeQuerySpec spec;
    spec.query = query;
    spec.transforms = std::move(transforms);
    spec.partition = grouping.partition;
    spec.target = target;
    spec.query_transform = std::move(query_transform);
    const std::size_t want =
        1 + static_cast<std::size_t>(rng.UniformInt(0, 39));
    spec.epsilon = PickAscendingThreshold(oracle.RangeDistances(spec), want);
    out.description = "range series=" + Num(series_id) + " eps=" +
                      Num(spec.epsilon) + " T=" +
                      Num(spec.transforms.size()) + grouping.text + " | " +
                      desc.str();
    out.spec = std::move(spec);
  } else {
    core::KnnQuerySpec spec;
    spec.query = query;
    spec.transforms = std::move(transforms);
    spec.partition = grouping.partition;
    spec.target = target;
    spec.query_transform = std::move(query_transform);
    spec.k = 1;
    spec.k = PickK(rng, oracle.KnnDistanceCurve(spec));
    out.description = "knn series=" + Num(series_id) + " k=" + Num(spec.k) +
                      " T=" + Num(spec.transforms.size()) + grouping.text +
                      " | " + desc.str();
    out.spec = std::move(spec);
  }
  return out;
}

}  // namespace tsq::testing
