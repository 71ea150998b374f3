#include "rstar/join.h"

#include <unordered_map>
#include <vector>

namespace tsq::rstar {

namespace {

// A node as the join sees it: its entry ids (child pages, or data ids at a
// leaf), each entry's mapped rect and the bounding rect of those.
struct JoinNode {
  std::uint32_t level = 0;  // 0 = leaf
  std::vector<std::uint64_t> ids;
  std::vector<Rect> mapped;
  Rect bound;
};

class SelfJoiner {
 public:
  SelfJoiner(const RStarTree& tree, const RectMap& map,
             const JoinPredicate& predicate, const JoinCallback& callback,
             SearchStats* stats)
      : tree_(tree),
        map_(map),
        predicate_(predicate),
        callback_(callback),
        stats_(stats) {}

  // The node at `page`, read and mapped on first use. Corruption when it
  // has no entries.
  Result<const JoinNode*> Load(storage::PageId page) {
    const auto it = cache_.find(page);
    if (it != cache_.end()) return &it->second;
    TSQ_RETURN_IF_ERROR(tree_.ReadNodeView(page, &decoded_, stats_));
    if (decoded_.size() == 0) {
      return Status::Corruption("R*-tree node without entries");
    }
    JoinNode node;
    node.level = decoded_.level;
    node.ids = decoded_.ids;
    node.mapped.reserve(decoded_.size());
    for (std::size_t i = 0; i < decoded_.size(); ++i) {
      node.mapped.push_back(map_ ? map_(decoded_.rect(i))
                                 : decoded_.rect(i).ToRect());
    }
    node.bound = BoundingRect(node.mapped);
    return &cache_.emplace(page, std::move(node)).first->second;
  }

  // Every qualifying pair with both entries under `node`.
  Status JoinWithin(const JoinNode& node) {
    const std::size_t n = node.ids.size();
    if (node.level == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) Report(node, i, node, j);
      }
      return Status::Ok();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Result<const JoinNode*> child_i = Child(node, i);
      if (!child_i.ok()) return child_i.status();
      TSQ_RETURN_IF_ERROR(JoinWithin(**child_i));
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!predicate_(node.mapped[i], node.mapped[j])) continue;
        const Result<const JoinNode*> child_j = Child(node, j);
        if (!child_j.ok()) return child_j.status();
        TSQ_RETURN_IF_ERROR(JoinAcross(**child_i, **child_j));
      }
    }
    return Status::Ok();
  }

 private:
  // Entry i's child. Corruption unless it sits one level below `parent`.
  Result<const JoinNode*> Child(const JoinNode& parent, std::size_t i) {
    Result<const JoinNode*> child =
        Load(static_cast<storage::PageId>(parent.ids[i]));
    if (child.ok() && (*child)->level + 1 != parent.level) {
      return Status::Corruption(
          "R*-tree child level is not its parent's level - 1");
    }
    return child;
  }

  // Every qualifying pair with one entry under `a` and the other under `b`,
  // two distinct nodes of one level.
  Status JoinAcross(const JoinNode& a, const JoinNode& b) {
    // Search-space restriction: an entry that fails against the other
    // node's bound fails against every entry under it.
    std::vector<std::size_t> keep_a;
    for (std::size_t i = 0; i < a.ids.size(); ++i) {
      if (predicate_(a.mapped[i], b.bound)) keep_a.push_back(i);
    }
    if (keep_a.empty()) return Status::Ok();
    std::vector<std::size_t> keep_b;
    for (std::size_t j = 0; j < b.ids.size(); ++j) {
      if (predicate_(a.bound, b.mapped[j])) keep_b.push_back(j);
    }
    if (a.level == 0) {
      for (const std::size_t i : keep_a) {
        for (const std::size_t j : keep_b) Report(a, i, b, j);
      }
      return Status::Ok();
    }
    for (const std::size_t i : keep_a) {
      for (const std::size_t j : keep_b) {
        if (!predicate_(a.mapped[i], b.mapped[j])) continue;
        const Result<const JoinNode*> child_a = Child(a, i);
        if (!child_a.ok()) return child_a.status();
        const Result<const JoinNode*> child_b = Child(b, j);
        if (!child_b.ok()) return child_b.status();
        TSQ_RETURN_IF_ERROR(JoinAcross(**child_a, **child_b));
      }
    }
    return Status::Ok();
  }

  // The leaf-level decision on entry i of `a` and entry j of `b`: the
  // predicate sees the smaller id's rect first, as the callback does.
  void Report(const JoinNode& a, std::size_t i, const JoinNode& b,
              std::size_t j) {
    const std::uint64_t x = a.ids[i];
    const std::uint64_t y = b.ids[j];
    if (x < y) {
      if (predicate_(a.mapped[i], b.mapped[j])) callback_(x, y);
    } else if (y < x) {
      if (predicate_(b.mapped[j], a.mapped[i])) callback_(y, x);
    }
  }

  const RStarTree& tree_;
  const RectMap& map_;
  const JoinPredicate& predicate_;
  const JoinCallback& callback_;
  SearchStats* stats_;
  RStarTree::NodeView decoded_;  // decode scratch, reused for every miss
  std::unordered_map<storage::PageId, JoinNode> cache_;
};

}  // namespace

Status SelfJoin(const RStarTree& tree, const RectMap& map,
                const JoinPredicate& predicate, const JoinCallback& callback,
                SearchStats* stats) {
  if (tree.size() == 0) return Status::Ok();
  SelfJoiner joiner(tree, map, predicate, callback, stats);
  const Result<const JoinNode*> root = joiner.Load(tree.root_page());
  if (!root.ok()) return root.status();
  return joiner.JoinWithin(**root);
}

}  // namespace tsq::rstar
