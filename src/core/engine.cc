#include "core/engine.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "core/cost_model.h"
#include "plan/planner.h"
#include "storage/atomic_file.h"

namespace tsq::core {

namespace {
// v2: engine checkpoints are epoch-named file trios bound together by a
// `<prefix>.manifest` (see SaveTo). v1 metas were written in place with no
// manifest and no atomicity; they are no longer produced or accepted.
constexpr int kMetaVersion = 2;
constexpr int kManifestVersion = 1;

// --- checkpoint manifest -----------------------------------------------------

/// What `<prefix>.manifest` records: the committed epoch and the digest of
/// each file of that epoch's trio. The manifest is written last and renamed
/// into place atomically, so its content *is* the definition of the current
/// checkpoint.
struct Manifest {
  std::uint64_t epoch = 0;
  storage::FileDigest records;
  storage::FileDigest index;
  storage::FileDigest meta;
};

std::string ManifestPath(const std::string& prefix) {
  return prefix + ".manifest";
}

std::string EpochFilePath(const std::string& prefix, std::uint64_t epoch,
                          const char* suffix) {
  return prefix + "." + std::to_string(epoch) + suffix;
}

/// The manifest's one and only serialization; SaveTo writes it and
/// ReadManifest demands it byte-for-byte.
std::string RenderManifest(const Manifest& manifest) {
  std::ostringstream text;
  text << "tsqckpt " << kManifestVersion << "\n";
  text << "epoch " << manifest.epoch << "\n";
  text << "records " << manifest.records.size << " " << manifest.records.fnv1a
       << "\n";
  text << "index " << manifest.index.size << " " << manifest.index.fnv1a
       << "\n";
  text << "meta " << manifest.meta.size << " " << manifest.meta.fnv1a << "\n";
  return text.str();
}

Result<Manifest> ReadManifest(const std::string& prefix) {
  const std::string path = ManifestPath(prefix);
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open checkpoint manifest: " + path);
  }
  const std::string raw((std::istreambuf_iterator<char>(file)),
                        std::istreambuf_iterator<char>());
  const auto bad = [&](const char* what) {
    return Status::Corruption(std::string("malformed checkpoint manifest (") +
                              what + "): " + path);
  };
  std::istringstream in(raw);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "tsqckpt" ||
      version != kManifestVersion) {
    return bad("header");
  }
  Manifest manifest;
  if (!(in >> tag >> manifest.epoch) || tag != "epoch" ||
      manifest.epoch == 0) {
    return bad("epoch");
  }
  const std::pair<const char*, storage::FileDigest*> entries[] = {
      {"records", &manifest.records},
      {"index", &manifest.index},
      {"meta", &manifest.meta}};
  for (const auto& [name, digest] : entries) {
    if (!(in >> tag >> digest->size >> digest->fnv1a) || tag != name) {
      return bad(name);
    }
  }
  // The parse above is lenient about whitespace and trailing bytes; the
  // commit point of the whole checkpoint deserves better. Re-render the
  // parsed manifest and demand the file is byte-for-byte canonical, so any
  // at-rest mutation — even one the tokenizer would shrug off — is rejected.
  if (raw != RenderManifest(manifest)) {
    return bad("non-canonical bytes");
  }
  return manifest;
}

/// Checkpoint files under `prefix` that the epoch-`keep` manifest does not
/// reference: trios of other epochs and `.tmp` leftovers of torn writes.
/// `keep == 0` matches nothing (everything checkpoint-like is stale).
std::vector<std::filesystem::path> StaleCheckpointFiles(
    const std::string& prefix, std::uint64_t keep) {
  namespace fs = std::filesystem;
  std::vector<fs::path> stale;
  const fs::path prefix_path(prefix);
  const std::string base = prefix_path.filename().string();
  fs::path dir = prefix_path.parent_path();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= base.size() + 1 || name.compare(0, base.size(), base) != 0 ||
        name[base.size()] != '.') {
      continue;
    }
    std::string rest = name.substr(base.size() + 1);  // "3.records", ...
    if (rest == "manifest") continue;
    const bool tmp = rest.size() > 4 && rest.ends_with(".tmp");
    if (tmp) rest.resize(rest.size() - 4);
    if (rest == "manifest") {  // a torn manifest write
      stale.push_back(entry.path());
      continue;
    }
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos || dot == 0) continue;
    const std::string digits = rest.substr(0, dot);
    const std::string suffix = rest.substr(dot);
    if (suffix != ".records" && suffix != ".index" && suffix != ".meta") {
      continue;
    }
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::uint64_t epoch = std::strtoull(digits.c_str(), nullptr, 10);
    if (tmp || epoch != keep) stale.push_back(entry.path());
  }
  return stale;
}
}  // namespace

SimilarityEngine::SimilarityEngine(std::vector<ts::Series> series,
                                   Options options) {
  dataset_ = std::make_unique<Dataset>(std::move(series), options.layout);
  index_ = std::make_unique<SequenceIndex>(*dataset_, options.tree);
  planner_ = std::make_unique<plan::Planner>(*dataset_, *index_);
}

SimilarityEngine::SimilarityEngine() = default;

SimilarityEngine::~SimilarityEngine() = default;

Result<std::size_t> SimilarityEngine::Insert(const ts::Series& series) {
  if (series.size() != dataset_->length()) {
    return Status::InvalidArgument("series length does not match dataset");
  }
  SnapshotManager::WriteLock write = snapshots_.LockWrite();
  const Result<std::size_t> appended = dataset_->Append(series);
  // A failed append is failure-atomic on its own: nothing was recorded, no
  // version bump, nothing to compensate.
  if (!appended.ok()) return appended.status();
  const std::size_t id = *appended;
  const Status inserted = index_->InsertEntry(id);
  if (!inserted.ok()) {
    // Compensate: tombstone the appended id so it can never match a query,
    // then rebuild the index — a tree insertion that failed mid-restructure
    // (forced reinsert removes entries before putting them back) can have
    // dropped *unrelated* live entries, which the tombstone alone cannot
    // repair. Rebuild only writes pages, so it succeeds even while a
    // read-fault hook is firing.
    const Status tombstoned = dataset_->MarkRemoved(id);
    TSQ_CHECK(tombstoned.ok()) << tombstoned.ToString();
    const Status rebuilt = index_->Rebuild();
    TSQ_CHECK(rebuilt.ok()) << rebuilt.ToString();
    planner_->BumpEpoch();     // the rebuilt tree prices differently
    snapshots_.BumpVersion();  // the tombstone is visible state
    return inserted;
  }
  planner_->BumpEpoch();  // cached plans priced the old tree
  snapshots_.BumpVersion();
  return id;
}

Status SimilarityEngine::Remove(std::size_t id) {
  SnapshotManager::WriteLock write = snapshots_.LockWrite();
  // The liveness check runs under the same lock as the commit below, so two
  // racing Remove(id) calls resolve deterministically: one Ok, one NotFound.
  if (id >= dataset_->size() || dataset_->removed(id)) {
    return Status::NotFound("no such live sequence");
  }
  // The tombstone is the commit point: every executor (and the test oracle)
  // filters removed ids, so from here on the sequence is gone from query
  // results regardless of what the index still says about it. MarkRemoved
  // cannot fail for an id the check above just validated.
  const Status tombstoned = dataset_->MarkRemoved(id);
  TSQ_CHECK(tombstoned.ok()) << tombstoned.ToString();
  const Status removed = index_->RemoveEntry(id);
  if (!removed.ok()) {
    // A clean failure (tree untouched) merely leaves a stale — filtered,
    // harmless — leaf entry; a failure during orphan reinsertion can have
    // dropped live entries. Rebuilding covers both without distinguishing.
    const Status rebuilt = index_->Rebuild();
    TSQ_CHECK(rebuilt.ok()) << rebuilt.ToString();
  }
  planner_->BumpEpoch();
  snapshots_.BumpVersion();
  return Status::Ok();
}

const QueryStats& QueryResult::stats() const {
  return std::visit(
      [](const auto& result) -> const QueryStats& { return result.stats; },
      value);
}

const obs::QueryTrace& QueryResult::trace() const {
  return std::visit(
      [](const auto& result) -> const obs::QueryTrace& {
        return result.trace;
      },
      value);
}

Result<QueryResult> SimilarityEngine::Execute(const QuerySpec& spec,
                                              const ExecOptions& options) const {
  return std::move(Run({&spec}, options, /*batch_size=*/0).front());
}

void SimilarityEngine::ResetIoStats() {
  // Each reset goes through the same atomics the hot paths update, so a
  // concurrent reader never sees a torn value — but a query running *across*
  // the reset would be attributed partly to the old epoch and partly to the
  // new one, which is why the thread-safety contract excludes that
  // interleaving (see engine.h and docs/ARCHITECTURE.md).
  dataset_->ResetRecordIo();
  index_->ResetIndexIo();
}

void SimilarityEngine::SetSimulatedDiskLatency(std::uint64_t nanos) {
  SnapshotManager::WriteLock write = snapshots_.LockWrite();
  dataset_->set_io_delay_nanos(nanos);
  index_->set_io_delay_nanos(nanos);
  // C_cmp was measured against the old page-read latency.
  planner_->InvalidateCalibration();
}

void SimilarityEngine::SetReadFaultHook(storage::FaultHook* hook) {
  SnapshotManager::WriteLock write = snapshots_.LockWrite();
  dataset_->SetReadFaultHook(hook);
  index_->SetReadFaultHook(hook);
}

void SimilarityEngine::SetCheckpointFaultHook(storage::FaultHook* hook) {
  SnapshotManager::WriteLock write = snapshots_.LockWrite();
  checkpoint_hook_ = hook;
}

Status SimilarityEngine::SaveTo(const std::string& prefix) const {
  // Pin a snapshot so the whole trio describes one committed state even
  // while writers are active.
  const SnapshotManager::ReadPin pin = snapshots_.PinRead();
  storage::FaultHook* hook = checkpoint_hook_;

  // Pick an epoch no manifest on disk could be referencing. The engine's
  // own counter is not enough: a save that "crashed" after the manifest
  // rename committed an epoch this engine never learned about, and reusing
  // that number would overwrite files the live manifest points at.
  std::uint64_t last = checkpoint_epoch_.load(std::memory_order_relaxed);
  if (const Result<Manifest> on_disk = ReadManifest(prefix); on_disk.ok()) {
    last = std::max(last, on_disk->epoch);
  }
  const std::uint64_t epoch = last + 1;

  // The trio, every file write-temp/fsync/renamed. Until the manifest below
  // commits, nothing here is reachable by LoadFrom.
  Manifest manifest;
  manifest.epoch = epoch;
  TSQ_RETURN_IF_ERROR(dataset_->SaveRecordsTo(
      EpochFilePath(prefix, epoch, ".records"), hook, &manifest.records));
  TSQ_RETURN_IF_ERROR(index_->SaveTo(EpochFilePath(prefix, epoch, ".index"),
                                     hook, &manifest.index));

  std::ostringstream meta;
  meta.precision(17);
  const transform::FeatureLayout& layout = dataset_->layout();
  const rstar::RStarTree& tree = index_->tree();
  meta << "tsqmeta " << kMetaVersion << "\n";
  meta << "length " << dataset_->length() << "\n";
  meta << "layout " << layout.include_mean_std << " "
       << layout.num_coefficients << " " << layout.first_coefficient << " "
       << layout.use_symmetry << "\n";
  meta << "tree " << tree.root_page() << " " << tree.height() << " "
       << tree.size() << " " << tree.capacity() << " " << tree.min_fill()
       << "\n";
  meta << "store " << dataset_->records().current_page() << " "
       << dataset_->records().cursor() << "\n";
  meta << "sequences " << dataset_->size() << "\n";
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    const storage::RecordId record = dataset_->record_id(i);
    meta << record.page << " " << record.offset << " "
         << dataset_->removed(i) << " " << dataset_->normal(i).mean << " "
         << dataset_->normal(i).stddev << "\n";
  }
  {
    storage::AtomicFile out(EpochFilePath(prefix, epoch, ".meta"), hook);
    TSQ_RETURN_IF_ERROR(out.Open());
    TSQ_RETURN_IF_ERROR(out.Append(meta.str()));
    TSQ_RETURN_IF_ERROR(out.Commit());
    manifest.meta = out.digest();
  }

  // The manifest rename is the commit point of the whole checkpoint: before
  // it, LoadFrom sees the previous epoch intact; after it, the new trio
  // (each file already fsynced above).
  {
    storage::AtomicFile out(ManifestPath(prefix), hook);
    TSQ_RETURN_IF_ERROR(out.Open());
    TSQ_RETURN_IF_ERROR(out.Append(RenderManifest(manifest)));
    TSQ_RETURN_IF_ERROR(out.Commit());
  }
  checkpoint_epoch_.store(epoch, std::memory_order_relaxed);

  // Garbage-collect superseded epochs. A crash in here costs only orphan
  // files, which the next SaveTo or LoadFrom sweeps up.
  if (hook != nullptr) {
    storage::WriteFaultDecision gc = hook->OnWrite("gc");
    if (gc.crash) {
      return gc.status.ok()
                 ? Status::IoError("injected crash at step 'gc' for " + prefix)
                 : gc.status;
    }
  }
  std::error_code ec;
  for (const std::filesystem::path& path :
       StaleCheckpointFiles(prefix, epoch)) {
    std::filesystem::remove(path, ec);  // best-effort
  }
  return Status::Ok();
}

Result<std::unique_ptr<SimilarityEngine>> SimilarityEngine::LoadFrom(
    const std::string& prefix) {
  const Result<Manifest> manifest = ReadManifest(prefix);
  if (!manifest.ok()) return manifest.status();
  const std::uint64_t epoch = manifest->epoch;

  // Verify every file of the trio against its manifest digest before
  // parsing *any* of them: a file from another epoch, a truncation or a
  // flipped bit anywhere is rejected here, so the loaders below only ever
  // see the exact bytes SaveTo committed.
  const std::pair<const char*, const storage::FileDigest*> files[] = {
      {".records", &manifest->records},
      {".index", &manifest->index},
      {".meta", &manifest->meta}};
  for (const auto& [suffix, want] : files) {
    const std::string path = EpochFilePath(prefix, epoch, suffix);
    const Result<storage::FileDigest> got = storage::DigestFile(path);
    if (!got.ok()) return got.status();
    if (*got != *want) {
      return Status::Corruption("checkpoint file does not match manifest (" +
                                path + ")");
    }
  }

  // Debris of a torn save — stale epochs, `.tmp` orphans — means a crash
  // happened between commits; the committed checkpoint just verified, so
  // recovery is simply sweeping the debris.
  std::error_code ec;
  for (const std::filesystem::path& path :
       StaleCheckpointFiles(prefix, epoch)) {
    std::filesystem::remove(path, ec);  // best-effort
  }

  std::ifstream meta(EpochFilePath(prefix, epoch, ".meta"));
  if (!meta) {
    return Status::IoError("cannot open for reading: " +
                           EpochFilePath(prefix, epoch, ".meta"));
  }
  const auto bad = [&](const char* what) {
    return Status::Corruption(std::string("malformed meta file: ") + what);
  };
  std::string tag;
  int version = 0;
  if (!(meta >> tag >> version) || tag != "tsqmeta" ||
      version != kMetaVersion) {
    return bad("header");
  }
  // Each field is range-checked before anything is sized or indexed from
  // it, in file order, so each check may rely on the ones before it.
  std::size_t length = 0;
  if (!(meta >> tag >> length) || tag != "length") return bad("length");
  // A record of `length` complex values must fit in the records file whose
  // size the manifest check above verified.
  if (length < 2 || length > manifest->records.size / sizeof(dft::Complex)) {
    return bad("length out of range");
  }
  transform::FeatureLayout layout;
  if (!(meta >> tag >> layout.include_mean_std >> layout.num_coefficients >>
        layout.first_coefficient >> layout.use_symmetry) ||
      tag != "layout") {
    return bad("layout");
  }
  // Every retained coefficient index must be below `length`. The count is
  // bounded first, so neither the subtraction nor dimensions() can wrap.
  if (layout.num_coefficients > length ||
      layout.first_coefficient > length - layout.num_coefficients) {
    return bad("layout coefficient out of range");
  }
  if (layout.dimensions() == 0) return bad("layout has no dimensions");
  storage::PageId root = 0;
  std::size_t height = 0, size = 0;
  std::uint32_t capacity = 0, min_fill = 0;
  if (!(meta >> tag >> root >> height >> size >> capacity >> min_fill) ||
      tag != "tree") {
    return bad("tree");
  }
  // A node of `capacity` entries must fit one page, and the split algorithm
  // needs at least kMinCapacity; min_fill/capacity is a divisor below.
  if (capacity < rstar::RStarTree::kMinCapacity ||
      capacity > rstar::RStarTree::MaxCapacity(layout.dimensions()) ||
      min_fill == 0 || min_fill > capacity) {
    return bad("tree fill parameters out of range");
  }
  // Checked after the page fit, which bounds the layout more coarsely: a
  // symmetry layout that keeps coefficient n/2, or a coefficient and its
  // mirror, would count one coefficient twice and prune true matches.
  if (!layout.SymmetrySoundFor(length)) {
    return bad("layout keeps a coefficient the symmetry property doubles");
  }
  storage::PageId store_page = 0;
  std::uint32_t store_cursor = 0;
  if (!(meta >> tag >> store_page >> store_cursor) || tag != "store") {
    return bad("store");
  }
  std::size_t count = 0;
  if (!(meta >> tag >> count) || tag != "sequences") return bad("sequences");
  // Rows are appended as they parse, not pre-sized from `count`: a tampered
  // count runs out of rows instead of allocating for them.
  std::vector<Dataset::SequenceMeta> sequences;
  std::size_t live = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Dataset::SequenceMeta s;
    if (!(meta >> s.record.page >> s.record.offset >> s.removed >> s.mean >>
          s.stddev)) {
      return bad("sequence row");
    }
    if (!std::isfinite(s.mean) || !std::isfinite(s.stddev) ||
        s.stddev < 0.0) {
      return bad("sequence normal form out of range");
    }
    if (!s.removed) ++live;
    sequences.push_back(s);
  }
  // The index persists one entry per live sequence; a mismatch means meta
  // and index are from different states and queries would silently drop or
  // resurrect sequences.
  if (size != live) return bad("tree size disagrees with live sequences");

  std::unique_ptr<SimilarityEngine> engine(new SimilarityEngine());
  Result<std::unique_ptr<Dataset>> dataset = Dataset::LoadFrom(
      EpochFilePath(prefix, epoch, ".records"), layout, length,
      std::move(sequences), store_page, store_cursor);
  if (!dataset.ok()) return dataset.status();
  engine->dataset_ = std::move(*dataset);

  rstar::TreeOptions tree_options;
  tree_options.capacity_override = capacity;
  tree_options.min_fill_fraction =
      static_cast<double>(min_fill) / static_cast<double>(capacity);
  Result<std::unique_ptr<SequenceIndex>> index = SequenceIndex::LoadFrom(
      *engine->dataset_, tree_options,
      EpochFilePath(prefix, epoch, ".index"), root, height, size);
  if (!index.ok()) return index.status();
  engine->index_ = std::move(*index);
  engine->planner_ =
      std::make_unique<plan::Planner>(*engine->dataset_, *engine->index_);
  engine->checkpoint_epoch_.store(epoch, std::memory_order_relaxed);
  return engine;
}

}  // namespace tsq::core
