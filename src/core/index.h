#ifndef TSQ_CORE_INDEX_H_
#define TSQ_CORE_INDEX_H_

#include <memory>

#include "common/status.h"
#include "core/dataset.h"
#include "rstar/rstar_tree.h"
#include "storage/page_file.h"

namespace tsq::core {

/// The multidimensional index of the paper: an R*-tree over the feature
/// vectors of a Dataset, persisted in its own paged file so index page reads
/// are counted separately from record fetches.
class SequenceIndex {
 public:
  /// Builds the index over every sequence of `dataset` (leaf entry id = the
  /// sequence's position in the dataset). The dataset must outlive the
  /// index.
  explicit SequenceIndex(const Dataset& dataset,
                         rstar::TreeOptions options = rstar::TreeOptions());

  /// Persistence: writes the index pages to `path` atomically (see
  /// PageFile::SaveTo); `hook` carries the crash-injection schedule,
  /// `digest` receives the written file's manifest entry.
  Status SaveTo(const std::string& path, storage::FaultHook* hook = nullptr,
                storage::FileDigest* digest = nullptr) const {
    return index_file_.SaveTo(path, hook, digest);
  }

  /// Rebuild-free load: attaches to previously saved index pages.
  static Result<std::unique_ptr<SequenceIndex>> LoadFrom(
      const Dataset& dataset, rstar::TreeOptions options,
      const std::string& path, storage::PageId root, std::size_t height,
      std::size_t size);

  const rstar::RStarTree& tree() const { return *tree_; }
  const Dataset& dataset() const { return *dataset_; }

  /// Adds the (already appended) dataset sequence `i` to the index.
  Status InsertEntry(std::size_t i);

  /// Removes sequence `i`'s entry from the index.
  Status RemoveEntry(std::size_t i);

  /// Discards the tree and bulk-loads a fresh one over every *live* dataset
  /// sequence — the engine's compensation step when InsertEntry/RemoveEntry
  /// failed partway (a failed tree restructure can drop entries for
  /// unrelated live ids, which tombstones cannot repair). Bulk loading only
  /// writes pages, so Rebuild succeeds even while a read-fault hook is
  /// injecting failures. Requires external exclusion from queries (the
  /// engine calls it under its write lock).
  Status Rebuild();

  storage::IoStats index_io() const { return index_file_.stats(); }
  void ResetIndexIo() { index_file_.ResetStats(); }

  /// Simulated per-page read latency (see storage::PageFile).
  void set_io_delay_nanos(std::uint64_t nanos) {
    index_file_.set_read_delay_nanos(nanos);
  }

  /// Installs (nullptr removes) a fault-injection hook on the index page
  /// file. Not safe concurrently with Execute(); keep the hook alive until
  /// removed.
  void SetReadFaultHook(storage::FaultHook* hook) {
    index_file_.SetFaultHook(hook);
  }

 private:
  struct LoadTag {};
  SequenceIndex(const Dataset& dataset, LoadTag) : dataset_(&dataset) {}

  const Dataset* dataset_;
  rstar::TreeOptions options_;
  mutable storage::PageFile index_file_;
  std::unique_ptr<rstar::RStarTree> tree_;
};

}  // namespace tsq::core

#endif  // TSQ_CORE_INDEX_H_
