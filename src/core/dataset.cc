#include "core/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tsq::core {

Dataset::Dataset(std::vector<ts::Series> raw,
                 transform::FeatureLayout layout)
    : layout_(layout) {
  TSQ_CHECK(!raw.empty());
  length_ = raw.front().size();
  TSQ_CHECK_GE(length_, std::size_t{2});
  TSQ_CHECK(layout_.SymmetrySoundFor(length_))
      << "under the symmetry property every retained coefficient f needs "
         "1 <= f and 2f < length";
  plan_ = std::make_unique<dft::FftPlan>(length_);
  records_ = std::make_unique<storage::RecordStore>(&record_file_);

  normals_.reserve(raw.size());
  coefficients_.reserve(raw.size() * layout_.num_coefficients);
  record_ids_.reserve(raw.size());
  for (ts::Series& series : raw) {
    // Construction happens before any fault hook can be installed, so the
    // only failure mode here is a real bug.
    const Result<std::size_t> id = Append(series);
    TSQ_CHECK(id.ok()) << id.status().ToString();
    // Release the raw series once appended: the input's memory goes to the
    // next normal forms and records instead of staying resident beside
    // them until construction ends.
    ts::Series().swap(series);
  }
  // Loading I/O is not part of any query's cost.
  record_file_.ResetStats();
}

Result<std::size_t> Dataset::Append(const ts::Series& series) {
  TSQ_CHECK_EQ(series.size(), length_)
      << "all series in a dataset must have equal length";
  ts::NormalForm normal = ts::Normalize(series);
  TSQ_RETURN_IF_ERROR(ValidateNormalForm(normal));
  const std::vector<dft::Complex> spectrum = plan_->Forward(normal.values);
  // The stored "full database record" is the normal form's spectrum
  // (real/imaginary interleaved). By Parseval (Eq. 8) it carries exactly
  // the information of the normal form itself, and the post-processing
  // step can evaluate transformed distances straight from it without an
  // FFT per candidate fetch. A std::complex<double> is exactly that pair of
  // doubles, so the spectrum's bytes are the record.
  //
  // The store write is the one fallible I/O step (it reads the current page,
  // a read an injected fault can fail); everything is pushed only after it
  // succeeded so a failure leaves no trace.
  Result<storage::RecordId> id = records_->Append(
      {reinterpret_cast<const std::uint8_t*>(spectrum.data()),
       spectrum.size() * sizeof(dft::Complex)});
  TSQ_RETURN_IF_ERROR(id.status());
  record_ids_.push_back(*id);
  Store(std::move(normal), spectrum, /*removed=*/false);
  return normals_.size() - 1;
}

void Dataset::Store(ts::NormalForm normal,
                    std::span<const dft::Complex> spectrum, bool removed) {
  const std::vector<dft::Complex> x = IndexedCoefficients(spectrum, layout_);
  coefficients_.insert(coefficients_.end(), x.begin(), x.end());
  normals_.push_back(std::move(normal));
  removed_.push_back(removed);
  if (!removed) ++active_count_;
}

Status Dataset::MarkRemoved(std::size_t i) {
  if (i >= removed_.size()) {
    return Status::NotFound("no such sequence id");
  }
  if (!removed_[i]) {
    removed_[i] = true;
    --active_count_;
  }
  return Status::Ok();
}

Result<std::unique_ptr<Dataset>> Dataset::LoadFrom(
    const std::string& records_path, transform::FeatureLayout layout,
    std::size_t length, std::vector<SequenceMeta> sequences,
    storage::PageId store_page, std::uint32_t store_cursor) {
  if (length < 2) return Status::InvalidArgument("length must be >= 2");
  std::unique_ptr<Dataset> dataset(new Dataset());
  dataset->layout_ = layout;
  dataset->length_ = length;
  dataset->plan_ = std::make_unique<dft::FftPlan>(length);
  TSQ_RETURN_IF_ERROR(dataset->record_file_.LoadFrom(records_path));
  // Bound every persisted location against the store actually loaded before
  // fetching anything: a corrupted meta row must surface as Corruption, not
  // as whatever a wild page id would do downstream.
  const std::size_t pages = dataset->record_file_.page_count();
  if ((store_page != storage::kInvalidPageId && store_page >= pages) ||
      store_cursor > storage::kPageSize) {
    return Status::Corruption("record store cursor out of range");
  }
  for (const SequenceMeta& meta : sequences) {
    // The whole length header must fit on the record's page. A location
    // that passes but points into another record's payload is caught by
    // FetchSpectrumInto's header-length check below, before any read or
    // allocation sized from the bytes found there.
    if (meta.record.page >= pages ||
        std::size_t{meta.record.offset} + storage::RecordStore::kHeaderSize >
            storage::kPageSize) {
      return Status::Corruption("sequence record id out of range");
    }
  }
  dataset->records_ =
      std::make_unique<storage::RecordStore>(&dataset->record_file_);
  dataset->records_->RestoreForLoad(store_page, store_cursor,
                                    sequences.size());

  dataset->normals_.reserve(sequences.size());
  dataset->coefficients_.reserve(sequences.size() * layout.num_coefficients);
  dataset->record_ids_.reserve(sequences.size());
  for (const SequenceMeta& meta : sequences) {
    dataset->record_ids_.push_back(meta.record);
    std::vector<dft::Complex> spectrum(length);
    TSQ_RETURN_IF_ERROR(dataset->FetchSpectrumInto(
        dataset->record_ids_.size() - 1, spectrum));
    ts::NormalForm normal;
    normal.values = dataset->plan_->InverseReal(spectrum);
    normal.mean = meta.mean;
    normal.stddev = meta.stddev;
    dataset->Store(std::move(normal), spectrum, meta.removed);
  }
  dataset->record_file_.ResetStats();
  return dataset;
}

Status Dataset::FetchSpectrumInto(std::size_t i, std::span<dft::Complex> out,
                                  std::uint64_t* pages_read) const {
  // Not a CHECK: the id can come from disk-resident index leaf entries, so
  // a corrupted leaf must surface as a Status through Execute(), not abort.
  if (i >= record_ids_.size()) {
    return Status::OutOfRange("no such sequence id: " + std::to_string(i));
  }
  if (out.size() != length_) {
    return Status::InvalidArgument("spectrum buffer does not hold length() "
                                   "values");
  }
  // The record is the spectrum's doubles, real/imaginary interleaved — the
  // object representation of std::complex<double> — so its payload bytes
  // land in `out` as they are.
  static_assert(sizeof(dft::Complex) == 2 * sizeof(double));
  return records_->ReadInto(
      record_ids_[i],
      {reinterpret_cast<std::uint8_t*>(out.data()), out.size_bytes()},
      pages_read);
}

Result<std::vector<dft::Complex>> Dataset::FetchSpectrum(
    std::size_t i, std::uint64_t* pages_read) const {
  std::vector<dft::Complex> spectrum(length_);
  TSQ_RETURN_IF_ERROR(FetchSpectrumInto(i, spectrum, pages_read));
  return spectrum;
}

Status ValidateNormalForm(const ts::NormalForm& normal) {
  if (!std::isfinite(normal.mean) || !std::isfinite(normal.stddev)) {
    return Status::InvalidArgument("series has a non-finite mean or stddev");
  }
  return Status::Ok();
}

Status ValidateQuerySeries(const Dataset& dataset, const ts::Series& query) {
  if (query.size() != dataset.length()) {
    return Status::InvalidArgument("query length does not match dataset");
  }
  for (const double value : query) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("query contains non-finite values");
    }
  }
  return Status::Ok();
}

Status ValidateTransforms(
    const Dataset& dataset,
    std::span<const transform::SpectralTransform> transforms) {
  if (transforms.empty()) {
    return Status::InvalidArgument("no transformations in query");
  }
  for (const transform::SpectralTransform& t : transforms) {
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
  return Status::Ok();
}

Status ValidatePartition(const transform::Partition& partition,
                         std::size_t transforms) {
  if (partition.empty()) return Status::Ok();
  std::vector<bool> seen(transforms, false);
  for (const std::vector<std::size_t>& group : partition) {
    if (group.empty()) {
      return Status::InvalidArgument("empty transformation group");
    }
    for (const std::size_t t : group) {
      if (t >= transforms || seen[t]) {
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
  return Status::Ok();
}

Status ValidateQueryTransform(
    const Dataset& dataset,
    const std::optional<transform::SpectralTransform>& query_transform) {
  if (!query_transform.has_value()) return Status::Ok();
  if (query_transform->length() != dataset.length()) {
    return Status::InvalidArgument(
        "query transformation length does not match dataset");
  }
  if (dataset.layout().use_symmetry &&
      !query_transform->PreservesRealSequences()) {
    return Status::InvalidArgument(
        "symmetry-based filtering requires a real-preserving query "
        "transformation: " +
        query_transform->label());
  }
  return Status::Ok();
}

PreparedQuery PrepareQuery(
    const Dataset& dataset, const ts::Series& query,
    const std::optional<transform::SpectralTransform>& query_transform) {
  const ts::NormalForm normal = ts::Normalize(query);
  PreparedQuery prepared;
  prepared.spectrum = dataset.plan().Forward(normal.values);
  if (query_transform.has_value()) {
    prepared.spectrum = query_transform->ApplyToSpectrum(prepared.spectrum);
  }
  prepared.coefficients =
      IndexedCoefficients(prepared.spectrum, dataset.layout());
  prepared.features = ExtractFeatures(normal.mean, normal.stddev,
                                      prepared.coefficients, dataset.layout());
  return prepared;
}

}  // namespace tsq::core
