#ifndef TSQ_RSTAR_JOIN_H_
#define TSQ_RSTAR_JOIN_H_

#include <concepts>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rstar/rstar_tree.h"

namespace tsq::rstar {

/// A rectangle-pair predicate used to prune the join. The join prepares each
/// rect once, when it loads the rect's node: `Prepare(r, out)` writes
/// `prepared_size()` doubles, and `p(a, b)` decides a pair from those. The
/// predicate must be *monotone* (whenever it rejects a pair of rectangles,
/// it also rejects every pair of rectangles contained in them) and
/// *symmetric* (it decides (x, y) as it decides (y, x)): a self-join prunes
/// unordered node pairs. Distance lower bounds such as core::RectPairWithin
/// are both in exact arithmetic. Their computed value can differ by an ulp
/// between (x, y) and (y, x), so the join fixes the argument order of every
/// call (see SelfJoin): one tree always yields the same pairs in the same
/// order.
template <typename P>
concept JoinPredicate = requires(const P& p, const RectView& r, double* out,
                                 const double* prepared) {
  { p.prepared_size() } -> std::convertible_to<std::size_t>;
  p.Prepare(r, out);
  { p(prepared, prepared) } -> std::convertible_to<bool>;
};

/// Receives each qualifying pair of leaf-entry ids, smaller id first.
using JoinCallback = std::function<void(std::uint64_t a, std::uint64_t b)>;

/// Per-entry rectangle preprocessing (e.g. applying a transformation MBR,
/// Section 4.1's join): applied once per entry when its node is first
/// loaded, so the cost is not paid per candidate pair. It writes the mapped
/// rect into the caller's `out`, whose storage the join reuses for every
/// entry (see transform::TransformMbr::ApplyInto). Identity when empty.
using RectMap = std::function<void(const RectView& in, Rect* out)>;

namespace join_internal {

// A node as the join sees it: its entry ids (child pages, or data ids at a
// leaf), then in one flat buffer each entry's mapped rect and the bounding
// rect of those, all in the predicate's prepared form.
struct JoinNode {
  std::uint32_t level = 0;  // 0 = leaf
  std::vector<std::uint64_t> ids;
  std::vector<double> prepared;  // ids.size() + 1 prepared rects
};

template <JoinPredicate P>
class SelfJoiner {
 public:
  SelfJoiner(const RStarTree& tree, const RectMap& map, const P& predicate,
             const JoinCallback& callback, SearchStats* stats)
      : tree_(tree),
        map_(map),
        predicate_(predicate),
        callback_(callback),
        stats_(stats),
        stride_(predicate.prepared_size()) {}

  // Every qualifying pair of the tree.
  Status Run() {
    const Result<const JoinNode*> root = Load(tree_.root_page());
    if (!root.ok()) return root.status();
    // Every node JoinAcross pairs is a checked child, below the root.
    keep_.resize((*root)->level);
    return JoinWithin(**root);
  }

 private:
  // The node at `page`, read, mapped and prepared on first use. Corruption
  // when it has no entries.
  Result<const JoinNode*> Load(storage::PageId page) {
    const auto it = cache_.find(page);
    if (it != cache_.end()) return &it->second;
    TSQ_RETURN_IF_ERROR(tree_.ReadNodeView(page, &decoded_, stats_));
    const std::size_t n = decoded_.size();
    if (n == 0) return Status::Corruption("R*-tree node without entries");
    JoinNode node;
    node.level = decoded_.level;
    node.ids = decoded_.ids;
    node.prepared.resize((n + 1) * stride_);
    for (std::size_t i = 0; i < n; ++i) {
      const RectView entry = decoded_.rect(i);
      if (map_) map_(entry, &mapped_);
      const RectView mapped = map_ ? RectView(mapped_) : entry;
      predicate_.Prepare(mapped, node.prepared.data() + i * stride_);
      if (i == 0) {
        bound_.Assign(mapped);
      } else {
        bound_.Enlarge(mapped);
      }
    }
    predicate_.Prepare(bound_, node.prepared.data() + n * stride_);
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
        if (!predicate_(Entry(node, i), Entry(node, j))) continue;
        const Result<const JoinNode*> child_j = Child(node, j);
        if (!child_j.ok()) return child_j.status();
        TSQ_RETURN_IF_ERROR(JoinAcross(**child_i, **child_j));
      }
    }
    return Status::Ok();
  }

  // Entry i's prepared rect; i = ids.size() is the node's bound.
  const double* Entry(const JoinNode& node, std::size_t i) const {
    return node.prepared.data() + i * stride_;
  }
  const double* Bound(const JoinNode& node) const {
    return Entry(node, node.ids.size());
  }

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
    // node's bound fails against every entry under it. The kept indices go
    // to this level's scratch: the recursion below only uses lower levels'.
    auto& [keep_a, keep_b] = keep_[a.level];
    keep_a.clear();
    for (std::size_t i = 0; i < a.ids.size(); ++i) {
      if (predicate_(Entry(a, i), Bound(b))) keep_a.push_back(i);
    }
    if (keep_a.empty()) return Status::Ok();
    keep_b.clear();
    for (std::size_t j = 0; j < b.ids.size(); ++j) {
      if (predicate_(Bound(a), Entry(b, j))) keep_b.push_back(j);
    }
    if (a.level == 0) {
      for (const std::size_t i : keep_a) {
        for (const std::size_t j : keep_b) Report(a, i, b, j);
      }
      return Status::Ok();
    }
    for (const std::size_t i : keep_a) {
      for (const std::size_t j : keep_b) {
        if (!predicate_(Entry(a, i), Entry(b, j))) continue;
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
      if (predicate_(Entry(a, i), Entry(b, j))) callback_(x, y);
    } else if (y < x) {
      if (predicate_(Entry(b, j), Entry(a, i))) callback_(y, x);
    }
  }

  const RStarTree& tree_;
  const RectMap& map_;
  const P& predicate_;
  const JoinCallback& callback_;
  SearchStats* stats_;
  const std::size_t stride_;     // doubles per prepared rect
  RStarTree::NodeView decoded_;  // decode scratch, reused for every miss
  Rect mapped_;                  // map scratch, reused for every entry
  Rect bound_;                   // the loading node's mapped bound
  std::unordered_map<storage::PageId, JoinNode> cache_;
  // Per level below the root's, the kept entry indices of either side of
  // the one JoinAcross running at that level.
  std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      keep_;
};

}  // namespace join_internal

/// R-tree self-join by synchronized depth-first traversal (Brinkhoff,
/// Kriegel, Seeger; SIGMOD 1993), with their search-space restriction and
/// without the plane sweep.
///
/// Symmetric enumeration: each unordered pair of nodes of one level is
/// visited at most once. A node paired with itself descends into each child
/// paired with itself and each child pair i < j whose mapped rects pass
/// `predicate`; two distinct nodes descend into the child pairs that pass.
/// Restriction: before the cross loop of two distinct nodes, each side
/// keeps only the entries whose mapped rect passes against the other node's
/// mapped bound. At the leaves, each unordered pair of distinct ids that
/// survives the pruning is decided once: `predicate` sees the mapped rect
/// of the smaller id first, and `callback` receives the pair in the same
/// order. Each qualifying pair thus arrives exactly once, never (x, x).
/// Above the leaves the first argument is entry i of a node paired with
/// itself, the first node's entry or bound across two nodes.
///
/// Nodes are read through one join-local cache: each page is fetched once
/// per join (the behaviour of a buffered R*-tree), and `stats` counts those
/// fetches. A node enters the cache as one flat buffer of its entries'
/// mapped rects and their bound, each prepared once; the predicate is
/// called directly on those, with no per-call type erasure. Returns
/// Corruption, instead of aborting or recursing without bound, when a node
/// has no entries or a child's level is not its parent's level - 1; the
/// recursion is thereby at most the root's level deep.
template <JoinPredicate P>
Status SelfJoin(const RStarTree& tree, const RectMap& map, const P& predicate,
                const JoinCallback& callback, SearchStats* stats = nullptr) {
  if (tree.size() == 0) return Status::Ok();
  return join_internal::SelfJoiner<P>(tree, map, predicate, callback, stats)
      .Run();
}

}  // namespace tsq::rstar

#endif  // TSQ_RSTAR_JOIN_H_
