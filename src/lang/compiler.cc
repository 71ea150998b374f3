#include "lang/compiler.h"

#include <cmath>
#include <sstream>

#include "transform/builders.h"
#include "transform/partition.h"
#include "ts/distance.h"
#include "ts/normal_form.h"

namespace tsq::lang {

namespace {

// The most values a range argument, and transformations a query, may expand
// to: 40 times scale(2..100), the largest set the benches and docs use.
constexpr std::size_t kMaxExpansion = 4096;

Status ArityError(const Factor& factor, const char* expected) {
  std::ostringstream msg;
  msg << "transformation '" << factor.name << "' expects " << expected
      << " (at position " << factor.position << ")";
  return Status::InvalidArgument(msg.str());
}

// Expands one argument of `factor` into its list of values; a range by
// repeated addition of its step.
Result<std::vector<double>> ExpandArg(const Factor& factor, const Arg& arg) {
  std::vector<double> values;
  if (!arg.is_range) {
    values.push_back(arg.lo);
    return values;
  }
  for (double v = arg.lo; v <= arg.hi + 1e-9; v += arg.step) {
    // A step below the value's ulp would repeat it forever.
    if (values.size() == kMaxExpansion || v + arg.step <= v) {
      return ArityError(factor, "a range of at most 4096 distinct values");
    }
    values.push_back(v);
  }
  return values;
}

// Builds the transforms of a single factor (expanding range arguments).
Result<std::vector<transform::SpectralTransform>> ExpandFactor(
    const Factor& factor, std::size_t n) {
  using transform::SpectralTransform;
  std::vector<SpectralTransform> out;
  std::vector<std::vector<double>> args;  // each argument's values
  for (const Arg& arg : factor.args) {
    Result<std::vector<double>> values = ExpandArg(factor, arg);
    if (!values.ok()) return values.status();
    args.push_back(std::move(*values));
  }
  const auto check_positive_int = [&](double v, const char* what) -> Status {
    if (v < 0.0 || std::fabs(v - std::round(v)) > 1e-9) {
      std::ostringstream msg;
      msg << "'" << factor.name << "' needs a non-negative integer " << what;
      return Status::InvalidArgument(msg.str());
    }
    return Status::Ok();
  };

  if (factor.name == "mv" || factor.name == "ma") {
    if (factor.args.size() != 1) return ArityError(factor, "one window arg");
    for (double w : args[0]) {
      TSQ_RETURN_IF_ERROR(check_positive_int(w, "window"));
      if (w < 1.0 || w > static_cast<double>(n)) {
        return ArityError(factor, "a window in [1, n]");
      }
      out.push_back(transform::MovingAverageTransform(
          n, static_cast<std::size_t>(w)));
    }
  } else if (factor.name == "lwma") {
    if (factor.args.size() != 1) return ArityError(factor, "one window arg");
    for (double w : args[0]) {
      TSQ_RETURN_IF_ERROR(check_positive_int(w, "window"));
      if (w < 1.0 || w > static_cast<double>(n)) {
        return ArityError(factor, "a window in [1, n]");
      }
      out.push_back(transform::LinearWeightedMovingAverageTransform(
          n, static_cast<std::size_t>(w)));
    }
  } else if (factor.name == "ema") {
    if (factor.args.size() != 1) return ArityError(factor, "one alpha arg");
    for (double alpha : args[0]) {
      if (alpha <= 0.0 || alpha > 1.0) {
        return ArityError(factor, "alpha in (0, 1]");
      }
      out.push_back(transform::ExponentialMovingAverageTransform(n, alpha));
    }
  } else if (factor.name == "momentum") {
    if (factor.args.empty()) {
      out.push_back(transform::MomentumTransform(n));
    } else if (factor.args.size() == 1) {
      for (double s : args[0]) {
        TSQ_RETURN_IF_ERROR(check_positive_int(s, "step"));
        if (s < 1.0 || s >= static_cast<double>(n)) {
          return ArityError(factor, "a step in [1, n)");
        }
        out.push_back(
            transform::MomentumTransform(n, static_cast<std::size_t>(s)));
      }
    } else {
      return ArityError(factor, "at most one step arg");
    }
  } else if (factor.name == "shift" || factor.name == "pshift") {
    if (factor.args.size() != 1) return ArityError(factor, "one shift arg");
    for (double s : args[0]) {
      // Negative shifts are circular left shifts.
      double wrapped = std::fmod(s, static_cast<double>(n));
      if (wrapped < 0.0) wrapped += static_cast<double>(n);
      TSQ_RETURN_IF_ERROR(check_positive_int(wrapped, "shift"));
      const std::size_t days = static_cast<std::size_t>(wrapped);
      out.push_back(factor.name == "shift"
                        ? transform::ShiftTransform(n, days)
                        : transform::PaddedShiftTransform(n, days));
    }
  } else if (factor.name == "scale") {
    if (factor.args.size() != 1) return ArityError(factor, "one factor arg");
    for (double a : args[0]) {
      out.push_back(transform::ScaleTransform(n, a));
    }
  } else if (factor.name == "invert") {
    if (!factor.args.empty()) return ArityError(factor, "no args");
    out.push_back(transform::InvertTransform(n));
  } else if (factor.name == "identity" || factor.name == "id") {
    if (!factor.args.empty()) return ArityError(factor, "no args");
    out.push_back(transform::SpectralTransform::Identity(n));
  } else if (factor.name == "band") {
    if (factor.args.size() != 2 || factor.args[0].is_range ||
        factor.args[1].is_range) {
      return ArityError(factor, "two scalar band edges");
    }
    TSQ_RETURN_IF_ERROR(check_positive_int(factor.args[0].lo, "band edge"));
    TSQ_RETURN_IF_ERROR(check_positive_int(factor.args[1].lo, "band edge"));
    if (factor.args[0].lo > factor.args[1].lo) {
      return ArityError(factor, "band edges lo <= hi");
    }
    out.push_back(transform::BandPassTransform(
        n, static_cast<std::size_t>(factor.args[0].lo),
        static_cast<std::size_t>(factor.args[1].lo)));
  } else if (factor.name == "diff2") {
    if (!factor.args.empty()) return ArityError(factor, "no args");
    out.push_back(transform::SecondDifferenceTransform(n));
  } else {
    std::ostringstream msg;
    msg << "unknown transformation '" << factor.name << "' (at position "
        << factor.position << ")";
    return Status::InvalidArgument(msg.str());
  }
  if (out.empty()) {
    return ArityError(factor, "a non-empty expansion");
  }
  return out;
}

}  // namespace

Result<std::vector<transform::SpectralTransform>> ExpandPipelines(
    const std::vector<Pipeline>& pipelines, std::size_t n) {
  std::vector<transform::SpectralTransform> all;
  for (const Pipeline& pipeline : pipelines) {
    if (pipeline.empty()) {
      return Status::InvalidArgument("empty transformation pipeline");
    }
    // The composition's count is checked before composing allocates it.
    std::vector<transform::SpectralTransform> composed;
    std::size_t count = 1;
    for (const Factor& factor : pipeline) {
      Result<std::vector<transform::SpectralTransform>> set =
          ExpandFactor(factor, n);
      if (!set.ok()) return set.status();
      count *= set->size();
      if (all.size() + count > kMaxExpansion) {
        return ArityError(factor, "at most 4096 transformations in all");
      }
      composed = composed.empty()
                     ? std::move(*set)
                     : transform::ComposeSpectralSets(composed, *set);
    }
    for (auto& t : composed) all.push_back(std::move(t));
  }
  if (all.empty()) {
    return Status::InvalidArgument("no transformations in query");
  }
  return all;
}

Result<CompiledQuery> Compile(const ParsedQuery& query,
                              const core::SimilarityEngine& engine) {
  const std::size_t n = engine.length();
  Result<std::vector<transform::SpectralTransform>> transforms =
      ExpandPipelines(query.pipelines, n);
  if (!transforms.ok()) return transforms.status();

  CompiledQuery compiled;
  switch (query.algorithm) {
    case AlgorithmChoice::kDefault:
    case AlgorithmChoice::kAuto:
      compiled.options.planner.algorithm = core::Algorithm::kAuto;
      break;
    case AlgorithmChoice::kMt:
      compiled.options.planner.algorithm = core::Algorithm::kMtIndex;
      break;
    case AlgorithmChoice::kSt:
      compiled.options.planner.algorithm = core::Algorithm::kStIndex;
      break;
    case AlgorithmChoice::kScan:
      compiled.options.planner.algorithm = core::Algorithm::kSequentialScan;
      break;
  }

  const auto resolve_query_series = [&](std::size_t id) -> Result<ts::Series> {
    if (id >= engine.dataset().size() || engine.dataset().removed(id)) {
      std::ostringstream msg;
      msg << "series " << id << " is not in the data set";
      return Status::NotFound(msg.str());
    }
    return ts::Denormalize(engine.dataset().normal(id));
  };
  const auto epsilon_for = [&](ThresholdKind kind,
                               double value) -> Result<double> {
    if (kind == ThresholdKind::kDistance) {
      if (value < 0.0) {
        return Status::InvalidArgument("negative distance threshold");
      }
      return value;
    }
    if (value > 1.0 || value < -1.0) {
      return Status::InvalidArgument("correlation threshold outside [-1, 1]");
    }
    return ts::CorrelationToDistanceThreshold(value, n);
  };
  const auto make_partition =
      [&](std::span<const transform::SpectralTransform> set)
      -> Result<transform::Partition> {
    const std::size_t count = set.size();
    switch (query.grouping) {
      case GroupingChoice::kDefault:
        return transform::Partition{};
      case GroupingChoice::kGroups:
        if (query.grouping_value > count) {
          return Status::InvalidArgument("more groups than transformations");
        }
        return transform::PartitionIntoGroups(count, query.grouping_value);
      case GroupingChoice::kPerMbr:
        return transform::PartitionBySize(count, query.grouping_value);
      case GroupingChoice::kClustered: {
        std::vector<transform::FeatureTransform> fts;
        for (const auto& t : set) {
          fts.push_back(t.ToFeatureTransform(engine.dataset().layout()));
        }
        return transform::PartitionByClusters(fts, 8);
      }
    }
    return transform::Partition{};
  };

  switch (query.kind) {
    case QueryKind::kRange: {
      core::RangeQuerySpec spec;
      Result<ts::Series> series = resolve_query_series(query.series_id);
      if (!series.ok()) return series.status();
      spec.query = std::move(*series);
      spec.transforms = std::move(*transforms);
      Result<double> epsilon =
          epsilon_for(query.threshold, query.threshold_value);
      if (!epsilon.ok()) return epsilon.status();
      spec.epsilon = *epsilon;
      Result<transform::Partition> partition =
          make_partition(spec.transforms);
      if (!partition.ok()) return partition.status();
      spec.partition = std::move(*partition);
      spec.use_ordering = query.ordered;
      spec.target = query.apply == ApplyChoice::kData
                        ? core::TransformTarget::kDataOnly
                        : core::TransformTarget::kBoth;
      compiled.spec = std::move(spec);
      return compiled;
    }
    case QueryKind::kKnn: {
      core::KnnQuerySpec spec;
      Result<ts::Series> series = resolve_query_series(query.series_id);
      if (!series.ok()) return series.status();
      spec.query = std::move(*series);
      spec.k = query.k;
      spec.transforms = std::move(*transforms);
      Result<transform::Partition> partition =
          make_partition(spec.transforms);
      if (!partition.ok()) return partition.status();
      spec.partition = std::move(*partition);
      spec.target = query.apply == ApplyChoice::kData
                        ? core::TransformTarget::kDataOnly
                        : core::TransformTarget::kBoth;
      compiled.spec = std::move(spec);
      return compiled;
    }
    case QueryKind::kJoin: {
      core::JoinQuerySpec spec;
      spec.transforms = std::move(*transforms);
      if (query.threshold == ThresholdKind::kCorrelation) {
        spec.mode = core::JoinMode::kCorrelation;
        spec.min_correlation = query.threshold_value;
      } else {
        spec.mode = core::JoinMode::kDistance;
        Result<double> epsilon =
            epsilon_for(query.threshold, query.threshold_value);
        if (!epsilon.ok()) return epsilon.status();
        spec.epsilon = *epsilon;
      }
      Result<transform::Partition> partition =
          make_partition(spec.transforms);
      if (!partition.ok()) return partition.status();
      spec.partition = std::move(*partition);
      if (query.apply == ApplyChoice::kData) {
        return Status::InvalidArgument(
            "APPLY DATA is not meaningful for pair joins");
      }
      if (query.ordered) {
        return Status::InvalidArgument("ORDERED is not supported for joins");
      }
      compiled.spec = std::move(spec);
      return compiled;
    }
  }
  return Status::Internal("unhandled query kind");
}

Result<CompiledQuery> CompileQuery(std::string_view text,
                                   const core::SimilarityEngine& engine) {
  Result<ParsedQuery> parsed = Parse(text);
  if (!parsed.ok()) return parsed.status();
  return Compile(*parsed, engine);
}

Result<std::string> Execute(const CompiledQuery& query,
                            const core::SimilarityEngine& engine,
                            std::size_t max_rows) {
  std::ostringstream out;
  Result<core::QueryResult> executed = engine.Execute(query.spec,
                                                      query.options);
  if (!executed.ok()) return executed.status();
  if (const auto* range = std::get_if<core::RangeQuerySpec>(&query.spec)) {
    const core::RangeQueryResult* result = executed->range();
    out << result->matches.size() << " match(es); disk accesses = "
        << result->stats.disk_accesses()
        << ", candidates = " << result->stats.candidates << "\n";
    std::vector<core::Match> sorted = result->matches;
    core::SortMatches(&sorted);
    std::size_t rows = 0;
    for (const core::Match& m : sorted) {
      if (rows++ == max_rows) {
        out << "  ...\n";
        break;
      }
      out << "  series " << m.series_id << "  "
          << range->transforms[m.transform_index].label() << "  D = "
          << m.distance << "\n";
    }
    return out.str();
  }
  if (const auto* knn = std::get_if<core::KnnQuerySpec>(&query.spec)) {
    const core::KnnQueryResult* result = executed->knn();
    out << result->matches.size() << " neighbour(s):\n";
    for (const core::KnnMatch& m : result->matches) {
      out << "  series " << m.series_id << "  "
          << knn->transforms[m.transform_index].label() << "  D = "
          << m.distance << "\n";
    }
    return out.str();
  }
  const auto& join = std::get<core::JoinQuerySpec>(query.spec);
  const core::JoinQueryResult* result = executed->join();
  out << result->matches.size() << " pair match(es); disk accesses = "
      << result->stats.disk_accesses() << "\n";
  std::vector<core::JoinMatch> sorted = result->matches;
  core::SortJoinMatches(&sorted);
  std::size_t rows = 0;
  for (const core::JoinMatch& m : sorted) {
    if (rows++ == max_rows) {
      out << "  ...\n";
      break;
    }
    out << "  (" << m.a << ", " << m.b << ")  "
        << join.transforms[m.transform_index].label() << "  "
        << (join.mode == core::JoinMode::kCorrelation ? "rho = " : "D = ")
        << m.value << "\n";
  }
  return out.str();
}

}  // namespace tsq::lang
