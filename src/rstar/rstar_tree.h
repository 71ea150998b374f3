#ifndef TSQ_RSTAR_RSTAR_TREE_H_
#define TSQ_RSTAR_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "rstar/rect.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tsq::rstar {

/// One entry of a node: a bounding rect plus either a child page id (internal
/// nodes) or an opaque data id (leaves).
struct Entry {
  Rect rect;
  std::uint64_t id = 0;
};

/// Tuning knobs of the R*-tree (defaults follow Beckmann et al. 1990).
struct TreeOptions {
  /// Minimum node fill as a fraction of capacity (the paper's m = 40%).
  double min_fill_fraction = 0.4;
  /// Fraction of entries removed during forced reinsertion (p = 30%).
  double reinsert_fraction = 0.3;
  /// Forced reinsertion on first overflow per level per insertion.
  bool forced_reinsert = true;
  /// Overrides the page-derived node capacity when > 0 (testing hook).
  std::uint32_t capacity_override = 0;
};

/// Counters for one or more index operations, in the units the paper reports.
struct SearchStats {
  /// Pages read at any level -- DA_all(q, r) in the cost model (Eq. 18).
  std::uint64_t nodes_accessed = 0;
  /// Pages read at the leaf level -- DA_leaf(q, r).
  std::uint64_t leaf_nodes_accessed = 0;
  /// Leaf entries that satisfied the predicate (candidates).
  std::uint64_t matches = 0;

  SearchStats& operator+=(const SearchStats& other) {
    nodes_accessed += other.nodes_accessed;
    leaf_nodes_accessed += other.leaf_nodes_accessed;
    matches += other.matches;
    return *this;
  }
};

/// Disk-resident R*-tree (Beckmann, Kriegel, Schneider, Seeger; SIGMOD 1990).
///
/// The paper's experiments run on "Norbert Beckmann's Version 2
/// implementation of the R*-tree"; this is a from-scratch implementation of
/// the same algorithm: ChooseSubtree with minimum overlap enlargement at the
/// leaf level, margin-driven split-axis selection, and forced reinsertion.
///
/// Nodes are stored one per page in a storage::PageFile, so every node visit
/// is a counted page read. The search interface takes a *predicate on
/// rectangles* rather than a fixed query window: the MT-index algorithm
/// works by transforming each node rectangle with a transformation MBR
/// before testing it against the query region (paper Section 4.1), which
/// plugs in here without the tree knowing about transformations.
///
/// Reads decode each node once, straight from its page bytes, into a flat
/// NodeView (ids plus coordinates, no per-entry allocation); searches test
/// entries through RectViews of it and report leaf hits as ids. The write
/// path builds its owning Node from the same decoder.
class RStarTree {
 public:
  /// A predicate deciding whether a bounding rect (internal entry or leaf
  /// entry) may contain query answers. Must never reject a rect that
  /// contains a qualifying entry (it may accept false positives). The view
  /// is valid for the duration of the call only.
  using RectPredicate = std::function<bool(const RectView&)>;

  /// Creates an empty tree of the given dimensionality backed by `file`
  /// (not owned; must outlive the tree and be exclusive to it).
  RStarTree(storage::PageFile* file, std::size_t dimensions,
            TreeOptions options = TreeOptions());

  /// Routes node I/O through `pool` (an LRU cache over the same file;
  /// write-through). SearchStats keep counting *logical* node accesses —
  /// without a pool those equal physical page reads; with one, physical
  /// reads are the pool's misses. Pass nullptr to detach.
  void SetBufferPool(storage::BufferPool* pool) { pool_ = pool; }

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts an entry. `id` is opaque to the tree.
  Status Insert(const Rect& rect, std::uint64_t id);

  /// Persistence hook: points an empty tree object at an existing node
  /// structure inside its (already loaded) page file. `root`, `height` and
  /// `size` must come from a prior tree's accessors; CheckInvariants() is
  /// the caller's friend after restoring.
  Status RestoreForLoad(storage::PageId root, std::size_t height,
                        std::size_t size);

  /// Bulk-loads the tree with Sort-Tile-Recursive packing (Leutenegger et
  /// al. 1997): O(n log n), produces near-full nodes and a far better
  /// clustered tree than repeated insertion, ~100x faster to build.
  /// Requires an empty tree; the result satisfies CheckInvariants() and
  /// behaves identically to an insertion-built tree for every query.
  Status BulkLoad(std::vector<Entry> entries);

  /// Removes an entry matching both `rect` and `id`; NotFound if absent.
  ///
  /// Failure atomicity: all fallible page reads (leaf location, the
  /// condense plan, the root-shrink chain) happen before the first page is
  /// written, so a read failure — an injected fault included — leaves the
  /// tree untouched. The only post-mutation failure window is orphan
  /// reinsertion after an underflow, which must traverse (read) the tree
  /// again; a caller that needs stronger guarantees compensates by
  /// rebuilding (see core::SequenceIndex::Rebuild).
  Status Delete(const Rect& rect, std::uint64_t id);

  /// Range search: appends to `*ids` the id of every leaf entry whose rect
  /// satisfies `predicate`, in depth-first traversal order, pruning subtrees
  /// whose bounding rect fails it. With `coords` non-null, each hit's rect
  /// is appended there too as 2·dimensions() doubles (its lows, then its
  /// highs) — for callers that re-test hits, such as the batch executor's
  /// per-query re-filter. Stats for this one search are added to `*stats`
  /// when non-null.
  Status Search(const RectPredicate& predicate, std::vector<std::uint64_t>* ids,
                SearchStats* stats = nullptr,
                std::vector<double>* coords = nullptr) const;

  /// Convenience window query: ids of the entries intersecting `window`.
  Status WindowQuery(const Rect& window, std::vector<std::uint64_t>* ids,
                     SearchStats* stats = nullptr) const;

  std::size_t size() const { return size_; }
  std::size_t dimensions() const { return dimensions_; }
  /// Levels from root to leaf inclusive (0 for an empty tree).
  std::size_t height() const { return height_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t min_fill() const { return min_fill_; }

  /// Bounding rect of all data, or nullopt when empty.
  std::optional<Rect> RootRect() const;

  /// Exhaustively checks structural invariants (parent MBRs tight and
  /// containing, fill factors, uniform leaf depth, size bookkeeping).
  /// Intended for tests; reads every node.
  Status CheckInvariants() const;

  /// One node decoded from its page bytes into flat buffers: entry i has id
  /// `ids[i]` and rect `rect(i)`, whose lows and highs are the
  /// 2·`dimensions` doubles starting at `coords[2·dimensions·i]` — the
  /// page's entry layout minus the interleaved ids. Decoding into a view
  /// that already held a node reuses its buffers, so a traversal allocates
  /// only while they grow. Level 0 = leaf.
  struct NodeView {
    std::uint32_t level = 0;
    storage::PageId page = storage::kInvalidPageId;
    bool is_leaf = false;
    std::size_t dimensions = 0;
    std::vector<std::uint64_t> ids;
    std::vector<double> coords;

    std::size_t size() const { return ids.size(); }
    RectView rect(std::size_t i) const {
      return RectView(coords.data() + 2 * dimensions * i, dimensions);
    }
    /// Entry i as an owning Entry (allocates its Rect).
    Entry entry(std::size_t i) const { return Entry{rect(i).ToRect(), ids[i]}; }
  };

  /// Runs `fn` on every node, depth first from the root. The view is
  /// reused for the next node once `fn` returns. Intended for diagnostics
  /// and the cost model's tree statistics.
  Status VisitNodes(const std::function<void(const NodeView&)>& fn) const;

  storage::PageId root_page() const { return root_; }

  /// Reads and decodes the node stored at `page` into `*out`, reusing its
  /// buffers. Exposed for the self-join's node cache and for the engine's
  /// k-NN best-first search. Counts page reads in `*stats`.
  Status ReadNodeView(storage::PageId page, NodeView* out,
                      SearchStats* stats = nullptr) const;

 private:
  struct Node {
    storage::PageId self = storage::kInvalidPageId;
    std::uint32_t level = 0;  // 0 = leaf
    std::vector<Entry> entries;

    bool is_leaf() const { return level == 0; }
  };

  // --- node I/O ------------------------------------------------------------
  // The one node decoder: parses `page` (stored at page id `id`) into
  // `*out`. Corruption for a page that is not a well-formed node.
  Status DecodeNode(storage::PageId id, const storage::Page& page,
                    NodeView* out) const;
  // Owning read for the write path: ReadNodeView, then one Entry per
  // decoded entry.
  Status ReadNode(storage::PageId id, Node* out) const;
  Status WriteNode(const Node& node);
  Status SerializeNode(const Node& node, storage::Page* page) const;

  // --- insertion -----------------------------------------------------------
  // Inserts `entry` at `target_level` (0 = leaf); `reinserted_levels` tracks
  // which levels already did a forced reinsert during this logical insert.
  Status InsertAtLevel(const Entry& entry, std::uint32_t target_level,
                       std::vector<bool>& reinserted_levels);
  // Chooses the child of `node` to descend into for an entry with `rect`.
  std::size_t ChooseSubtree(const Node& node, const Rect& rect) const;
  // Handles an overflowing node: forced reinsert or split, propagating up.
  // `path` holds the page ids from root to `node` (inclusive).
  Status OverflowTreatment(Node node, std::vector<storage::PageId> path,
                           std::vector<bool>& reinserted_levels);
  Status SplitNode(Node node, std::vector<storage::PageId> path,
                   std::vector<bool>& reinserted_levels);
  // R*-split: picks the axis and distribution; returns entries partitioned
  // into two groups.
  void ChooseSplit(const std::vector<Entry>& entries,
                   std::vector<Entry>* group_a,
                   std::vector<Entry>* group_b) const;
  // Recomputes ancestors' bounding rects along `path` after a child changed.
  Status AdjustPath(const std::vector<storage::PageId>& path);

  // --- deletion ------------------------------------------------------------
  Status FindLeaf(const Node& node, const Rect& rect, std::uint64_t id,
                  std::vector<storage::PageId>& path, bool* found) const;

  Rect NodeRect(const Node& node) const;

  storage::PageFile* file_;
  storage::BufferPool* pool_ = nullptr;
  std::size_t dimensions_;
  TreeOptions options_;
  std::uint32_t capacity_ = 0;
  std::uint32_t min_fill_ = 0;
  storage::PageId root_ = storage::kInvalidPageId;
  std::size_t size_ = 0;
  std::size_t height_ = 0;
};

}  // namespace tsq::rstar

#endif  // TSQ_RSTAR_RSTAR_TREE_H_
