#include "subseq/subsequence_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/feature.h"
#include "transform/transform_mbr.h"
#include "ts/normal_form.h"

namespace tsq::subseq {

SubsequenceIndex::SubsequenceIndex(SubsequenceOptions options)
    : options_(std::move(options)) {
  TSQ_CHECK_GE(options_.window, std::size_t{4});
  TSQ_CHECK_GE(options_.max_subtrail, std::size_t{1});
  TSQ_CHECK(options_.probe_extent > 0.0);
  plan_ = std::make_unique<dft::FftPlan>(options_.window);
  records_ = std::make_unique<storage::RecordStore>(&record_file_);
  tree_ = std::make_unique<rstar::RStarTree>(
      &index_file_, options_.layout.dimensions(), options_.tree);
}

rstar::Point SubsequenceIndex::WindowFeatures(
    std::span<const double> window) const {
  const ts::NormalForm normal = ts::Normalize(window);
  const std::vector<dft::Complex> spectrum = plan_->Forward(normal.values);
  return core::ExtractFeatures(normal, spectrum, options_.layout);
}

double SubsequenceIndex::MbrCost(const rstar::Rect& rect) const {
  // Only the retained-coefficient dimensions filter queries (the query
  // region is unbounded on mean/stddev), so only they enter the FRM
  // marginal-cost estimate; including the wide raw-statistics dimensions
  // would shred trails into near-singletons.
  double cost = 1.0;
  for (std::size_t i = 0; i < options_.layout.num_coefficients; ++i) {
    cost *= rect.Extent(options_.layout.magnitude_dimension(i)) +
            2.0 * options_.probe_extent;
    cost *= rect.Extent(options_.layout.angle_dimension(i)) +
            2.0 * options_.probe_extent;
  }
  return cost;
}

Result<std::size_t> SubsequenceIndex::AddSequence(const ts::Series& series) {
  if (series.size() < options_.window) {
    return Status::InvalidArgument("sequence shorter than the window");
  }
  const std::size_t sequence = sequence_lengths_.size();
  Result<storage::RecordId> record = records_->AppendSeries(series);
  if (!record.ok()) return record.status();
  record_ids_.push_back(*record);
  sequence_lengths_.push_back(series.size());

  // Build the trail and cut it into sub-trail MBRs with FRM's greedy
  // marginal-cost rule: extend the current MBR when covering the next window
  // point is cheaper than opening a fresh MBR for it.
  const std::size_t offsets = series.size() - options_.window + 1;
  const double point_cost = MbrCost(
      rstar::Rect::FromPoint(rstar::Point(options_.layout.dimensions(), 0.0)));

  rstar::Rect current = rstar::Rect::Empty(options_.layout.dimensions());
  std::size_t first = 0;
  std::size_t count = 0;
  const auto flush = [&]() -> Status {
    if (count == 0) return Status::Ok();
    const std::uint64_t id = subtrails_.size();
    subtrails_.push_back(Subtrail{sequence, first, count});
    return tree_->Insert(current, id);
  };
  for (std::size_t offset = 0; offset < offsets; ++offset) {
    const rstar::Point features = WindowFeatures(
        std::span<const double>(series.data() + offset, options_.window));
    const rstar::Rect point_rect = rstar::Rect::FromPoint(features);
    if (count == 0) {
      current = point_rect;
      first = offset;
      count = 1;
      continue;
    }
    rstar::Rect grown = current;
    grown.Enlarge(point_rect);
    const bool over_cap = count >= options_.max_subtrail;
    const bool cheaper_apart =
        MbrCost(grown) > MbrCost(current) + point_cost;
    if (over_cap || cheaper_apart) {
      TSQ_RETURN_IF_ERROR(flush());
      current = point_rect;
      first = offset;
      count = 1;
    } else {
      current = std::move(grown);
      ++count;
    }
  }
  TSQ_RETURN_IF_ERROR(flush());
  window_count_ += offsets;
  return sequence;
}

Result<std::vector<SubseqMatch>> SubsequenceIndex::RangeSearch(
    const ts::Series& query, double epsilon,
    std::span<const transform::SpectralTransform> transforms,
    SubseqStats* stats) const {
  if (query.size() != options_.window) {
    return Status::InvalidArgument("query length must equal the window");
  }
  if (epsilon < 0.0) {
    return Status::InvalidArgument("negative distance threshold");
  }
  const std::vector<transform::SpectralTransform> identity = {
      transform::SpectralTransform::Identity(options_.window)};
  if (transforms.empty()) transforms = identity;
  for (const transform::SpectralTransform& t : transforms) {
    if (t.length() != options_.window) {
      return Status::InvalidArgument(
          "transformation length must equal the window: " + t.label());
    }
    if (options_.layout.use_symmetry && !t.PreservesRealSequences()) {
      return Status::InvalidArgument(
          "symmetry-based filtering requires real-preserving "
          "transformations: " +
          t.label());
    }
  }

  const ts::NormalForm query_normal = ts::Normalize(query);
  const std::vector<dft::Complex> query_spectrum =
      plan_->Forward(query_normal.values);
  const rstar::Point query_features =
      core::ExtractFeatures(query_normal, query_spectrum, options_.layout);

  std::vector<transform::FeatureTransform> fts;
  fts.reserve(transforms.size());
  for (const transform::SpectralTransform& t : transforms) {
    fts.push_back(t.ToFeatureTransform(options_.layout));
  }
  const transform::TransformMbr mbr(fts, options_.layout);
  const rstar::Rect query_region =
      core::BuildQueryRegion(query_features, fts, epsilon, options_.layout);

  std::vector<std::uint64_t> hits;  // sub-trail ids
  rstar::SearchStats search_stats;
  TSQ_RETURN_IF_ERROR(tree_->Search(
      [&](const rstar::RectView& rect) {
        return mbr.AppliedIntersects(rect, query_region);
      },
      &hits, &search_stats));

  const double eps2 = epsilon * epsilon;
  std::vector<SubseqMatch> matches;
  const std::uint64_t record_reads_before = record_file_.stats().reads;
  std::uint64_t candidate_windows = 0;
  std::uint64_t comparisons = 0;
  for (const std::uint64_t hit : hits) {
    const Subtrail& trail = subtrails_[hit];
    // One ranged fetch covers all of the sub-trail's windows.
    const std::size_t span = trail.count + options_.window - 1;
    Result<ts::Series> values = records_->GetSeriesRange(
        record_ids_[trail.sequence], trail.first_offset, span);
    if (!values.ok()) return values.status();
    candidate_windows += trail.count;
    for (std::size_t k = 0; k < trail.count; ++k) {
      const std::span<const double> window(values->data() + k,
                                           options_.window);
      const ts::NormalForm normal = ts::Normalize(window);
      const std::vector<dft::Complex> spectrum =
          plan_->Forward(normal.values);
      for (std::size_t t = 0; t < transforms.size(); ++t) {
        ++comparisons;
        const double d2 =
            transforms[t].TransformedSquaredDistance(spectrum, query_spectrum);
        if (d2 < eps2) {
          matches.push_back(SubseqMatch{trail.sequence,
                                        trail.first_offset + k, t,
                                        std::sqrt(d2)});
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->index_nodes_accessed += search_stats.nodes_accessed;
    stats->record_pages_read +=
        record_file_.stats().reads - record_reads_before;
    stats->candidate_windows += candidate_windows;
    stats->comparisons += comparisons;
    stats->subtrails_hit += hits.size();
  }
  return matches;
}

std::vector<SubseqMatch> SubsequenceIndex::BruteForce(
    const ts::Series& query, double epsilon,
    std::span<const transform::SpectralTransform> transforms) const {
  TSQ_CHECK_EQ(query.size(), options_.window);
  const std::vector<transform::SpectralTransform> identity = {
      transform::SpectralTransform::Identity(options_.window)};
  if (transforms.empty()) transforms = identity;
  const ts::NormalForm query_normal = ts::Normalize(query);
  const std::vector<dft::Complex> query_spectrum =
      plan_->Forward(query_normal.values);
  const double eps2 = epsilon * epsilon;

  std::vector<SubseqMatch> matches;
  for (std::size_t sequence = 0; sequence < sequence_lengths_.size();
       ++sequence) {
    Result<ts::Series> values = records_->GetSeries(record_ids_[sequence]);
    TSQ_CHECK(values.ok()) << values.status().ToString();
    const std::size_t offsets =
        sequence_lengths_[sequence] - options_.window + 1;
    for (std::size_t offset = 0; offset < offsets; ++offset) {
      const std::span<const double> window(values->data() + offset,
                                           options_.window);
      const ts::NormalForm normal = ts::Normalize(window);
      const std::vector<dft::Complex> spectrum =
          plan_->Forward(normal.values);
      for (std::size_t t = 0; t < transforms.size(); ++t) {
        const double d2 =
            transforms[t].TransformedSquaredDistance(spectrum, query_spectrum);
        if (d2 < eps2) {
          matches.push_back(
              SubseqMatch{sequence, offset, t, std::sqrt(d2)});
        }
      }
    }
  }
  return matches;
}

}  // namespace tsq::subseq
