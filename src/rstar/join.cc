#include "rstar/join.h"

#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace tsq::rstar {

namespace {

// A node as the join sees it: original entries plus their mapped rects and
// the mapped bounding rect. Cached per side so every page is fetched once.
struct JoinNodeView {
  bool is_leaf = false;
  std::uint32_t level = 0;
  std::vector<Entry> entries;        // original rects (reported to callback)
  std::vector<Rect> mapped;          // per-entry mapped rects
  Rect mapped_bound;                 // bounding rect of `mapped`
};

class NodeCache {
 public:
  NodeCache(const RStarTree& tree, const RectMap& map, SearchStats* stats)
      : tree_(tree), map_(map), stats_(stats) {}

  Result<const JoinNodeView*> Get(storage::PageId page) {
    auto it = cache_.find(page);
    if (it != cache_.end()) return &it->second;
    TSQ_RETURN_IF_ERROR(tree_.ReadNodeView(page, &decoded_, stats_));
    JoinNodeView view;
    view.is_leaf = decoded_.is_leaf;
    view.level = decoded_.level;
    view.entries.reserve(decoded_.size());
    view.mapped.reserve(decoded_.size());
    for (std::size_t i = 0; i < decoded_.size(); ++i) {
      view.entries.push_back(decoded_.entry(i));
      const Rect& rect = view.entries.back().rect;
      view.mapped.push_back(map_ ? map_(rect) : rect);
    }
    TSQ_CHECK(!view.mapped.empty());
    view.mapped_bound = view.mapped.front();
    for (std::size_t i = 1; i < view.mapped.size(); ++i) {
      view.mapped_bound.Enlarge(view.mapped[i]);
    }
    auto [inserted, _] = cache_.emplace(page, std::move(view));
    return &inserted->second;
  }

 private:
  const RStarTree& tree_;
  const RectMap& map_;
  SearchStats* stats_;
  RStarTree::NodeView decoded_;  // decode scratch, reused for every miss
  std::unordered_map<storage::PageId, JoinNodeView> cache_;
};

Status JoinNodes(NodeCache& left_cache, NodeCache& right_cache,
                 storage::PageId left_page, storage::PageId right_page,
                 const JoinPredicate& predicate,
                 const JoinCallback& callback) {
  Result<const JoinNodeView*> a_result = left_cache.Get(left_page);
  if (!a_result.ok()) return a_result.status();
  Result<const JoinNodeView*> b_result = right_cache.Get(right_page);
  if (!b_result.ok()) return b_result.status();
  const JoinNodeView& a = **a_result;
  const JoinNodeView& b = **b_result;

  if (a.is_leaf && b.is_leaf) {
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
      for (std::size_t j = 0; j < b.entries.size(); ++j) {
        if (predicate(a.mapped[i], b.mapped[j])) {
          callback(a.entries[i], b.entries[j]);
        }
      }
    }
    return Status::Ok();
  }
  if (!a.is_leaf && (b.is_leaf || a.level >= b.level)) {
    // Descend the left (deeper or equal) side.
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
      if (!predicate(a.mapped[i], b.mapped_bound)) continue;
      TSQ_RETURN_IF_ERROR(JoinNodes(
          left_cache, right_cache,
          static_cast<storage::PageId>(a.entries[i].id), right_page,
          predicate, callback));
    }
    return Status::Ok();
  }
  // Descend the right side.
  for (std::size_t j = 0; j < b.entries.size(); ++j) {
    if (!predicate(a.mapped_bound, b.mapped[j])) continue;
    TSQ_RETURN_IF_ERROR(JoinNodes(
        left_cache, right_cache, left_page,
        static_cast<storage::PageId>(b.entries[j].id), predicate, callback));
  }
  return Status::Ok();
}

}  // namespace

Status SpatialJoin(const RStarTree& left, const RStarTree& right,
                   const JoinPredicate& predicate, const JoinCallback& callback,
                   SearchStats* left_stats, SearchStats* right_stats,
                   const JoinOptions& options) {
  if (left.size() == 0 || right.size() == 0) return Status::Ok();
  NodeCache left_cache(left, options.left_map, left_stats);
  NodeCache right_cache(right, options.right_map, right_stats);
  return JoinNodes(left_cache, right_cache, left.root_page(),
                   right.root_page(), predicate, callback);
}

}  // namespace tsq::rstar
