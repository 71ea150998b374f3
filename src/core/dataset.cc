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
  plan_ = std::make_unique<dft::FftPlan>(length_);
  records_ = std::make_unique<storage::RecordStore>(&record_file_);

  normals_.reserve(raw.size());
  features_.reserve(raw.size());
  record_ids_.reserve(raw.size());
  for (const ts::Series& series : raw) {
    // Construction happens before any fault hook can be installed, so the
    // only failure mode here is a real bug.
    const Result<std::size_t> id = Append(series);
    TSQ_CHECK(id.ok()) << id.status().ToString();
  }
  // Loading I/O is not part of any query's cost.
  record_file_.ResetStats();
}

Result<std::size_t> Dataset::Append(const ts::Series& series) {
  TSQ_CHECK_EQ(series.size(), length_)
      << "all series in a dataset must have equal length";
  ts::NormalForm normal = ts::Normalize(series);
  std::vector<dft::Complex> spectrum = plan_->Forward(normal.values);
  rstar::Point features = ExtractFeatures(normal, spectrum, layout_);
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!finite(normal.mean) || !finite(normal.stddev) ||
      !std::all_of(features.begin(), features.end(), finite)) {
    return Status::InvalidArgument(
        "series has a non-finite mean, stddev or feature");
  }
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
  features_.push_back(std::move(features));
  record_ids_.push_back(*id);
  normals_.push_back(std::move(normal));
  removed_.push_back(false);
  ++active_count_;
  return normals_.size() - 1;
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
  dataset->features_.reserve(sequences.size());
  dataset->record_ids_.reserve(sequences.size());
  for (const SequenceMeta& meta : sequences) {
    dataset->record_ids_.push_back(meta.record);
    dataset->removed_.push_back(meta.removed);
    if (!meta.removed) ++dataset->active_count_;
    std::vector<dft::Complex> spectrum(length);
    TSQ_RETURN_IF_ERROR(dataset->FetchSpectrumInto(
        dataset->record_ids_.size() - 1, spectrum));
    ts::NormalForm normal;
    normal.values = dataset->plan_->InverseReal(spectrum);
    normal.mean = meta.mean;
    normal.stddev = meta.stddev;
    dataset->features_.push_back(
        ExtractFeatures(normal, spectrum, dataset->layout_));
    dataset->normals_.push_back(std::move(normal));
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

PreparedQuery PrepareQuery(
    const Dataset& dataset, const ts::Series& query,
    const std::optional<transform::SpectralTransform>& query_transform) {
  const ts::NormalForm normal = ts::Normalize(query);
  PreparedQuery prepared;
  prepared.spectrum = dataset.plan().Forward(normal.values);
  if (query_transform.has_value()) {
    prepared.spectrum = query_transform->ApplyToSpectrum(prepared.spectrum);
  }
  prepared.features =
      ExtractFeatures(normal, prepared.spectrum, dataset.layout());
  return prepared;
}

}  // namespace tsq::core
