#ifndef TSQ_CORE_DATASET_H_
#define TSQ_CORE_DATASET_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/feature.h"
#include "dft/fft.h"
#include "rstar/rect.h"
#include "storage/page_file.h"
#include "storage/record_store.h"
#include "transform/feature_layout.h"
#include "transform/partition.h"
#include "transform/spectral_transform.h"
#include "ts/normal_form.h"
#include "ts/series.h"

namespace tsq::core {

/// The "stocks relation" of the paper: a collection of equal-length
/// sequences, each stored in normal form together with its mean and standard
/// deviation (Section 3.2), plus the derived artifacts the query algorithms
/// need:
///
///  * normal-form records packed into a paged RecordStore — the table the
///    sequential scan reads and the post-processing step fetches candidates
///    from, with every touched page counted;
///  * per-sequence indexed DFT coefficients in cartesian form, held in one
///    flat array of layout().num_coefficients complex values per sequence
///    (32 bytes per sequence under the default layout): the stored record's
///    own values at those coefficients, bit for bit (IndexedCoefficients),
///    which the feature bound (core/polar_bounds.h) and the planner read.
///    With the mean and stddev they give each sequence's index point
///    (features), which is derived, not stored.
///
/// The coefficients come from the stored record, never from the index, so
/// the feature bound cannot be misled by a tampered leaf.
///
/// The record store is the one stored copy of each spectrum: executors and
/// planner calibration fetch records and pay the I/O.
class Dataset {
 public:
  /// Builds from raw series. All series must have the same length >= 2,
  /// and the layout must be sound for that length
  /// (FeatureLayout::SymmetrySoundFor).
  Dataset(std::vector<ts::Series> raw, transform::FeatureLayout layout);

  /// Appends one more sequence (normalizes, derives features, stores the
  /// record) and returns its id. Requires series.size() == length().
  /// InvalidArgument when ValidateNormalForm rejects its normal form.
  /// Failure-atomic: storing the record reads the store's current page, so
  /// it can fail (e.g. under an injected read fault) — in that case, as on
  /// InvalidArgument, nothing is appended and the dataset is exactly as
  /// before.
  Result<std::size_t> Append(const ts::Series& series);

  /// Tombstones sequence `i`: it stays in the (append-only) record store but
  /// is excluded from every query. Idempotent. NotFound for bad ids.
  Status MarkRemoved(std::size_t i);

  /// True when `i` has been removed.
  bool removed(std::size_t i) const { return removed_[i]; }

  /// Sequences ever loaded (including removed ones); valid id range.
  std::size_t size() const { return normals_.size(); }

  /// Sequences currently live.
  std::size_t active_size() const { return active_count_; }
  std::size_t length() const { return length_; }
  const transform::FeatureLayout& layout() const { return layout_; }
  const dft::FftPlan& plan() const { return *plan_; }

  const ts::NormalForm& normal(std::size_t i) const { return normals_[i]; }
  /// Sequence i's index features (i < size()), derived from its statistics
  /// and coefficients(i): the point its R*-tree leaf entry holds.
  rstar::Point features(std::size_t i) const {
    return ExtractFeatures(normals_[i].mean, normals_[i].stddev,
                           coefficients(i), layout_);
  }

  /// Sequence i's indexed DFT coefficients in cartesian form (i < size()):
  /// element c equals the stored record's coefficient layout().coefficient(c)
  /// bit for bit.
  std::span<const dft::Complex> coefficients(std::size_t i) const {
    const std::size_t count = layout_.num_coefficients;
    return {coefficients_.data() + i * count, count};
  }

  /// Fetches sequence i's normal-form spectrum from the record store
  /// (counted page reads) straight into `out`, which must hold exactly
  /// length() values: the payload fragments are copied from the page
  /// buffers into `out` with no intermediate byte, series or spectrum copy.
  /// This is what executors use to touch a "full database record" at the
  /// cost the paper's cost model charges; they pass per-task scratch, so a
  /// fetch allocates nothing. `pages_read`, when non-null, is incremented by
  /// the pages this fetch touched — per-task accounting for the parallel
  /// executor, which cannot diff the shared record_io() counter. A record
  /// whose stored length is not 2·length() doubles is Corruption, found
  /// before any payload is read. On failure `out` is unspecified.
  Status FetchSpectrumInto(std::size_t i, std::span<dft::Complex> out,
                           std::uint64_t* pages_read = nullptr) const;

  /// FetchSpectrumInto into a freshly allocated spectrum.
  Result<std::vector<dft::Complex>> FetchSpectrum(
      std::size_t i, std::uint64_t* pages_read = nullptr) const;

  /// Pages the record store occupies (the sequential scan reads all of
  /// them).
  std::size_t record_pages() const { return record_file_.page_count(); }

  storage::IoStats record_io() const { return record_file_.stats(); }
  void ResetRecordIo() { record_file_.ResetStats(); }

  /// Simulated per-page read latency (see storage::PageFile).
  void set_io_delay_nanos(std::uint64_t nanos) {
    record_file_.set_read_delay_nanos(nanos);
  }

  /// Installs (nullptr removes) a fault-injection hook on the record page
  /// file; every record fetch — sequential scan and candidate verification
  /// alike — passes through it. Not safe concurrently with queries; keep
  /// the hook alive until removed.
  void SetReadFaultHook(storage::FaultHook* hook) {
    record_file_.SetFaultHook(hook);
  }

  // --- persistence (used by SimilarityEngine::SaveTo / LoadFrom) ----------

  /// Writes the record pages to `path` atomically (see PageFile::SaveTo);
  /// `hook` carries the crash-injection schedule, `digest` receives the
  /// written file's manifest entry.
  Status SaveRecordsTo(const std::string& path,
                       storage::FaultHook* hook = nullptr,
                       storage::FileDigest* digest = nullptr) const {
    return record_file_.SaveTo(path, hook, digest);
  }

  storage::RecordId record_id(std::size_t i) const { return record_ids_[i]; }
  const storage::RecordStore& records() const { return *records_; }

  /// Everything beyond the record pages needed to rebuild one sequence's
  /// in-memory state.
  struct SequenceMeta {
    storage::RecordId record;
    bool removed = false;
    double mean = 0.0;
    double stddev = 0.0;
  };

  /// Rebuilds a dataset from a record page file plus per-sequence metadata:
  /// normal forms come from the inverse DFT of the stored spectra, indexed
  /// coefficients from the spectra.
  static Result<std::unique_ptr<Dataset>> LoadFrom(
      const std::string& records_path, transform::FeatureLayout layout,
      std::size_t length, std::vector<SequenceMeta> sequences,
      storage::PageId store_page, std::uint32_t store_cursor);

 private:
  Dataset() = default;  // for LoadFrom

  // Pushes the in-memory state of the sequence whose record id was pushed
  // last, derived from its normal form and stored `spectrum`. Append and
  // LoadFrom both end here.
  void Store(ts::NormalForm normal, std::span<const dft::Complex> spectrum,
             bool removed);

  transform::FeatureLayout layout_;
  std::size_t length_ = 0;
  std::unique_ptr<dft::FftPlan> plan_;
  std::vector<ts::NormalForm> normals_;
  // num_coefficients values per sequence
  std::vector<dft::Complex> coefficients_;
  std::vector<bool> removed_;
  std::size_t active_count_ = 0;
  mutable storage::PageFile record_file_;
  std::unique_ptr<storage::RecordStore> records_;
  std::vector<storage::RecordId> record_ids_;
};

/// The finiteness check every data series passes before it is indexed, on
/// its normal form (ts::Normalize): InvalidArgument when the mean or the
/// stddev is not finite. That rejects a NaN or ±inf value, and also finite
/// values whose sum or spread overflows (alternating ±1e308): such a point
/// cannot be indexed or checkpointed. Finite statistics keep the normal
/// form finite, and with it every index feature. Dataset::Append runs it
/// on each series, so the constructor aborts on a series that fails; input
/// that has not been checked yet (a loaded file, say) passes it before it
/// reaches the constructor.
Status ValidateNormalForm(const ts::NormalForm& normal);

/// A query sequence prepared against a dataset: the spectrum of its normal
/// form (after the optional fixed query transformation), its indexed
/// coefficients and its index feature vector.
struct PreparedQuery {
  std::vector<dft::Complex> spectrum;
  std::vector<dft::Complex> coefficients;
  rstar::Point features;
};

/// The checks every query series passes before PrepareQuery: its length is
/// the dataset's, and every value is finite. A NaN or ±inf value makes every
/// distance NaN, so a range query would silently match nothing and a k-NN
/// order would not exist. InvalidArgument otherwise.
Status ValidateQuerySeries(const Dataset& dataset, const ts::Series& query);

/// The checks every query's transformation set passes: it is non-empty, and
/// each transformation has the dataset's length and, when the layout uses
/// the symmetry property, maps real sequences to real sequences (doubling
/// the coefficient weight bounds the distance only then). InvalidArgument
/// otherwise.
Status ValidateTransforms(
    const Dataset& dataset,
    std::span<const transform::SpectralTransform> transforms);

/// A spec's MBR grouping is empty (one rectangle) or a partition of the
/// indices [0, transforms): non-empty groups that name every index exactly
/// once. InvalidArgument otherwise.
Status ValidatePartition(const transform::Partition& partition,
                         std::size_t transforms);

/// The optional fixed query transformation, when set, has the dataset's
/// length and, when the layout uses the symmetry property, maps real
/// sequences to real sequences: the transformed query spectrum must stay
/// Hermitian for the doubled coefficient weight to bound its distance, in
/// the index filter and the feature bound alike. InvalidArgument otherwise.
Status ValidateQueryTransform(
    const Dataset& dataset,
    const std::optional<transform::SpectralTransform>& query_transform);

/// The one query preparation every executor runs: normalize `query`, take
/// its DFT with the dataset's plan, apply `query_transform` when set, and
/// pick coefficients and features as Dataset does. Mean/stddev feature
/// slots are never constrained by a query region, so the raw query
/// statistics stand soundly beside a transformed spectrum.
PreparedQuery PrepareQuery(
    const Dataset& dataset, const ts::Series& query,
    const std::optional<transform::SpectralTransform>& query_transform);

}  // namespace tsq::core

#endif  // TSQ_CORE_DATASET_H_
