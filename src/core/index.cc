#include "core/index.h"

#include "common/check.h"

namespace tsq::core {

SequenceIndex::SequenceIndex(const Dataset& dataset,
                             rstar::TreeOptions options)
    : dataset_(&dataset), options_(options) {
  const Status status = Rebuild();
  TSQ_CHECK(status.ok()) << status.ToString();
}

Result<std::unique_ptr<SequenceIndex>> SequenceIndex::LoadFrom(
    const Dataset& dataset, rstar::TreeOptions options,
    const std::string& path, storage::PageId root, std::size_t height,
    std::size_t size) {
  std::unique_ptr<SequenceIndex> index(
      new SequenceIndex(dataset, LoadTag{}));
  index->options_ = options;
  TSQ_RETURN_IF_ERROR(index->index_file_.LoadFrom(path));
  index->tree_ = std::make_unique<rstar::RStarTree>(
      &index->index_file_, dataset.layout().dimensions(), options);
  TSQ_RETURN_IF_ERROR(index->tree_->RestoreForLoad(root, height, size));
  index->index_file_.ResetStats();
  return index;
}

Status SequenceIndex::InsertEntry(std::size_t i) {
  if (i >= dataset_->size()) return Status::NotFound("no such sequence id");
  return tree_->Insert(rstar::Rect::FromPoint(dataset_->features(i)), i);
}

Status SequenceIndex::RemoveEntry(std::size_t i) {
  if (i >= dataset_->size()) return Status::NotFound("no such sequence id");
  return tree_->Delete(rstar::Rect::FromPoint(dataset_->features(i)), i);
}

Status SequenceIndex::Rebuild() {
  index_file_.Clear();
  tree_ = std::make_unique<rstar::RStarTree>(
      &index_file_, dataset_->layout().dimensions(), options_);
  std::vector<rstar::Entry> entries;
  entries.reserve(dataset_->active_size());
  for (std::size_t i = 0; i < dataset_->size(); ++i) {
    if (dataset_->removed(i)) continue;
    entries.push_back(
        rstar::Entry{rstar::Rect::FromPoint(dataset_->features(i)), i});
  }
  // STR bulk load: near-full, well-clustered nodes, built in O(n log n).
  TSQ_RETURN_IF_ERROR(tree_->BulkLoad(std::move(entries)));
  // Build I/O is not part of any query's cost.
  index_file_.ResetStats();
  return Status::Ok();
}

}  // namespace tsq::core
