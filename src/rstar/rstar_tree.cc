#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "common/check.h"

namespace tsq::rstar {

namespace {

// Node page layout: [u16 magic][u16 level][u32 count][entries...], entry =
// [u64 id][dim f64 lows][dim f64 highs].
constexpr std::uint16_t kNodeMagic = 0x5254;  // "RT"
constexpr std::size_t kHeaderSize = 8;

// Deep-enough bound for reinsertion bookkeeping; R-tree height is
// logarithmic, so 64 levels can never be reached.
constexpr std::size_t kMaxLevels = 64;

// Share of an overflowing node's entries that forced reinsertion removes
// (p = 30%, the value Beckmann et al. found best).
constexpr double kReinsertFraction = 0.3;

}  // namespace

std::uint32_t RStarTree::MaxCapacity(std::size_t dimensions) {
  constexpr std::size_t kBodyBytes = storage::kPageSize - kHeaderSize;
  constexpr std::size_t kRectBytesPerDimension = 2 * sizeof(double);
  // Bounded before multiplying: the count may come from a checkpoint.
  if (dimensions > kBodyBytes / kRectBytesPerDimension) return 0;
  const std::size_t entry_bytes =
      sizeof(std::uint64_t) + dimensions * kRectBytesPerDimension;
  return static_cast<std::uint32_t>(kBodyBytes / entry_bytes);
}

RStarTree::RStarTree(storage::PageFile* file, std::size_t dimensions,
                     TreeOptions options)
    : file_(file), dimensions_(dimensions) {
  TSQ_CHECK(file != nullptr);
  TSQ_CHECK_GE(dimensions, std::size_t{1});
  const std::uint32_t fit = MaxCapacity(dimensions_);
  capacity_ = options.capacity_override > 0 ? options.capacity_override : fit;
  TSQ_CHECK_GE(capacity_, kMinCapacity) << "page too small for dimension "
                                        << dimensions_;
  TSQ_CHECK_LE(capacity_, fit) << "capacity override does not fit in a page";
  min_fill_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(options.min_fill_fraction *
                                    static_cast<double>(capacity_)));
  // The split algorithm needs 2*min_fill <= capacity + 1.
  min_fill_ = std::min(min_fill_, (capacity_ + 1) / 2);
}

// --- node I/O ----------------------------------------------------------------

Status RStarTree::SerializeNode(const Node& node, storage::Page* page) const {
  TSQ_CHECK_LE(node.entries.size(), static_cast<std::size_t>(capacity_) + 1);
  std::uint8_t* out = page->bytes.data();
  std::memset(out, 0, storage::kPageSize);
  const std::uint16_t level = static_cast<std::uint16_t>(node.level);
  const std::uint32_t count = static_cast<std::uint32_t>(node.entries.size());
  std::memcpy(out + 0, &kNodeMagic, 2);
  std::memcpy(out + 2, &level, 2);
  std::memcpy(out + 4, &count, 4);
  std::size_t cursor = kHeaderSize;
  for (const Entry& entry : node.entries) {
    TSQ_CHECK_EQ(entry.rect.dimensions(), dimensions_);
    std::memcpy(out + cursor, &entry.id, sizeof entry.id);
    cursor += sizeof entry.id;
    std::memcpy(out + cursor, entry.rect.lows().data(),
                dimensions_ * sizeof(double));
    cursor += dimensions_ * sizeof(double);
    std::memcpy(out + cursor, entry.rect.highs().data(),
                dimensions_ * sizeof(double));
    cursor += dimensions_ * sizeof(double);
  }
  if (cursor > storage::kPageSize) {
    return Status::Internal("serialized node exceeds page size");
  }
  return Status::Ok();
}

Status RStarTree::DecodeNode(storage::PageId id, const storage::Page& page,
                             NodeView* out) const {
  const std::uint8_t* in = page.bytes.data();
  std::uint16_t magic = 0;
  std::uint16_t level = 0;
  std::uint32_t count = 0;
  std::memcpy(&magic, in + 0, 2);
  std::memcpy(&level, in + 2, 2);
  std::memcpy(&count, in + 4, 4);
  if (magic != kNodeMagic) {
    return Status::Corruption("page is not an R*-tree node");
  }
  const std::size_t rect_bytes = 2 * dimensions_ * sizeof(double);
  const std::size_t entry_bytes = sizeof(std::uint64_t) + rect_bytes;
  if (count > capacity_ + 1 ||
      kHeaderSize + std::size_t{count} * entry_bytes > storage::kPageSize) {
    return Status::Corruption("node entry count exceeds capacity");
  }
  out->level = level;
  out->page = id;
  out->is_leaf = level == 0;
  out->dimensions = dimensions_;
  out->ids.resize(count);
  out->coords.resize(count * 2 * dimensions_);
  // Entry i = [u64 id][lows][highs]: the id goes to ids[i], the two
  // coordinate blocks (adjacent on the page) to one flat slot.
  const std::uint8_t* entry = in + kHeaderSize;
  double* coords = out->coords.data();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::memcpy(&out->ids[i], entry, sizeof(std::uint64_t));
    std::memcpy(coords, entry + sizeof(std::uint64_t), rect_bytes);
    entry += entry_bytes;
    coords += 2 * dimensions_;
  }
  return Status::Ok();
}

Status RStarTree::ReadNodeView(storage::PageId page, NodeView* out,
                               SearchStats* stats) const {
  storage::Page buffer;
  TSQ_RETURN_IF_ERROR(file_->Read(page, &buffer));
  TSQ_RETURN_IF_ERROR(DecodeNode(page, buffer, out));
  if (stats != nullptr) {
    ++stats->nodes_accessed;
    if (out->is_leaf) ++stats->leaf_nodes_accessed;
  }
  return Status::Ok();
}

Status RStarTree::ReadNode(storage::PageId id, Node* out) const {
  NodeView view;
  TSQ_RETURN_IF_ERROR(ReadNodeView(id, &view));
  out->self = id;
  out->level = view.level;
  out->entries.clear();
  out->entries.reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    out->entries.push_back(view.entry(i));
  }
  return Status::Ok();
}

Status RStarTree::WriteNode(const Node& node) {
  storage::Page page;
  TSQ_RETURN_IF_ERROR(SerializeNode(node, &page));
  return file_->Write(node.self, page);
}

Rect RStarTree::NodeRect(const Node& node) const {
  TSQ_CHECK(!node.entries.empty());
  Rect rect = node.entries.front().rect;
  for (std::size_t i = 1; i < node.entries.size(); ++i) {
    rect.Enlarge(node.entries[i].rect);
  }
  return rect;
}

// --- insertion ---------------------------------------------------------------

Status RStarTree::Insert(const Rect& rect, std::uint64_t id) {
  TSQ_CHECK_EQ(rect.dimensions(), dimensions_);
  std::vector<bool> reinserted(kMaxLevels, false);
  TSQ_RETURN_IF_ERROR(InsertAtLevel(Entry{rect, id}, 0, reinserted));
  ++size_;
  return Status::Ok();
}

std::size_t RStarTree::ChooseSubtree(const Node& node,
                                     const Rect& rect) const {
  TSQ_CHECK(!node.entries.empty());
  const std::size_t count = node.entries.size();
  std::size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement (R* refinement).
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < count; ++i) {
      Rect grown = node.entries[i].rect;
      grown.Enlarge(rect);
      double overlap_delta = 0.0;
      for (std::size_t j = 0; j < count; ++j) {
        if (j == i) continue;
        overlap_delta += grown.OverlapArea(node.entries[j].rect) -
                         node.entries[i].rect.OverlapArea(node.entries[j].rect);
      }
      const double enlarge = node.entries[i].rect.Enlargement(rect);
      const double area = node.entries[i].rect.Area();
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }
  // Higher levels: minimize area enlargement, ties by area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const double enlarge = node.entries[i].rect.Enlargement(rect);
    const double area = node.entries[i].rect.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

Status RStarTree::InsertAtLevel(const Entry& entry, std::uint32_t target_level,
                                std::vector<bool>& reinserted_levels) {
  if (root_ == storage::kInvalidPageId) {
    TSQ_CHECK_EQ(target_level, 0u);
    Node root;
    root.self = file_->Allocate();
    root.level = 0;
    root.entries.push_back(entry);
    root_ = root.self;
    height_ = 1;
    return WriteNode(root);
  }

  // Descend to the target level, remembering the path.
  std::vector<storage::PageId> path{root_};
  Node node;
  TSQ_RETURN_IF_ERROR(ReadNode(root_, &node));
  TSQ_CHECK_GE(node.level, target_level)
      << "reinsertion level deeper than the tree";
  while (node.level > target_level) {
    const std::size_t child_index = ChooseSubtree(node, entry.rect);
    const storage::PageId child =
        static_cast<storage::PageId>(node.entries[child_index].id);
    path.push_back(child);
    TSQ_RETURN_IF_ERROR(ReadNode(child, &node));
  }

  node.entries.push_back(entry);
  if (node.entries.size() <= capacity_) {
    TSQ_RETURN_IF_ERROR(WriteNode(node));
    return AdjustPath(path);
  }
  return OverflowTreatment(std::move(node), std::move(path),
                           reinserted_levels);
}

Status RStarTree::OverflowTreatment(Node node,
                                    std::vector<storage::PageId> path,
                                    std::vector<bool>& reinserted_levels) {
  TSQ_CHECK_LT(node.level, kMaxLevels);
  const bool is_root = node.self == root_;
  if (!is_root && !reinserted_levels[node.level]) {
    reinserted_levels[node.level] = true;
    // Remove the p entries whose centers are farthest from the node center.
    const Rect node_rect = NodeRect(node);
    const std::size_t p = std::max<std::size_t>(
        1, static_cast<std::size_t>(kReinsertFraction *
                                    static_cast<double>(node.entries.size())));
    std::vector<std::pair<double, std::size_t>> by_distance;
    by_distance.reserve(node.entries.size());
    for (std::size_t i = 0; i < node.entries.size(); ++i) {
      by_distance.emplace_back(
          node.entries[i].rect.CenterSquaredDistance(node_rect), i);
    }
    std::sort(by_distance.begin(), by_distance.end());
    // Keep the close ones, reinsert the far ones starting with the closest
    // ("close reinsert" performed best in the R* paper).
    std::vector<Entry> keep, reinsert;
    const std::size_t keep_count = node.entries.size() - p;
    for (std::size_t rank = 0; rank < by_distance.size(); ++rank) {
      const Entry& e = node.entries[by_distance[rank].second];
      if (rank < keep_count) {
        keep.push_back(e);
      } else {
        reinsert.push_back(e);
      }
    }
    node.entries = std::move(keep);
    TSQ_RETURN_IF_ERROR(WriteNode(node));
    TSQ_RETURN_IF_ERROR(AdjustPath(path));
    const std::uint32_t level = node.level;
    for (const Entry& e : reinsert) {
      TSQ_RETURN_IF_ERROR(InsertAtLevel(e, level, reinserted_levels));
    }
    return Status::Ok();
  }
  return SplitNode(std::move(node), std::move(path), reinserted_levels);
}

void RStarTree::ChooseSplit(const std::vector<Entry>& entries,
                            std::vector<Entry>* group_a,
                            std::vector<Entry>* group_b) const {
  const std::size_t total = entries.size();
  const std::size_t m = min_fill_;
  TSQ_CHECK_GE(total, 2 * m);

  // For every axis consider entries sorted by low and by high value; the
  // split axis is the one with the smallest margin sum over all candidate
  // distributions (R* "ChooseSplitAxis").
  double best_margin_sum = std::numeric_limits<double>::infinity();
  // Remember the winning axis' distributions to avoid re-sorting.
  std::vector<std::size_t> best_order;

  std::vector<std::size_t> order(total);
  for (std::size_t axis = 0; axis < dimensions_; ++axis) {
    for (const bool by_low : {true, false}) {
      for (std::size_t i = 0; i < total; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Rect& ra = entries[a].rect;
        const Rect& rb = entries[b].rect;
        if (by_low) {
          if (ra.low(axis) != rb.low(axis)) return ra.low(axis) < rb.low(axis);
          return ra.high(axis) < rb.high(axis);
        }
        if (ra.high(axis) != rb.high(axis)) {
          return ra.high(axis) < rb.high(axis);
        }
        return ra.low(axis) < rb.low(axis);
      });
      // Prefix/suffix bounding rects for O(n) margin evaluation.
      std::vector<Rect> prefix(total), suffix(total);
      prefix[0] = entries[order[0]].rect;
      for (std::size_t i = 1; i < total; ++i) {
        prefix[i] = prefix[i - 1];
        prefix[i].Enlarge(entries[order[i]].rect);
      }
      suffix[total - 1] = entries[order[total - 1]].rect;
      for (std::size_t i = total - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1];
        suffix[i].Enlarge(entries[order[i]].rect);
      }
      double margin_sum = 0.0;
      for (std::size_t split = m; split + m <= total; ++split) {
        margin_sum += prefix[split - 1].Margin() + suffix[split].Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_order = order;
      } else if (best_order.empty()) {
        // Margins of huge coordinates overflow to inf. Until some margin sum
        // compares below +inf, keep the first candidate (axis 0 by low).
        best_order = order;
      }
    }
  }

  // On the chosen axis/order, pick the distribution with minimum overlap,
  // ties by minimum combined area (R* "ChooseSplitIndex").
  const std::vector<std::size_t>& ord = best_order;
  std::vector<Rect> prefix(total), suffix(total);
  prefix[0] = entries[ord[0]].rect;
  for (std::size_t i = 1; i < total; ++i) {
    prefix[i] = prefix[i - 1];
    prefix[i].Enlarge(entries[ord[i]].rect);
  }
  suffix[total - 1] = entries[ord[total - 1]].rect;
  for (std::size_t i = total - 1; i-- > 0;) {
    suffix[i] = suffix[i + 1];
    suffix[i].Enlarge(entries[ord[i]].rect);
  }
  std::size_t best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (std::size_t split = m; split + m <= total; ++split) {
    const double overlap = prefix[split - 1].OverlapArea(suffix[split]);
    const double area = prefix[split - 1].Area() + suffix[split].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }

  group_a->clear();
  group_b->clear();
  for (std::size_t i = 0; i < total; ++i) {
    if (i < best_split) {
      group_a->push_back(entries[ord[i]]);
    } else {
      group_b->push_back(entries[ord[i]]);
    }
  }
}

Status RStarTree::SplitNode(Node node, std::vector<storage::PageId> path,
                            std::vector<bool>& reinserted_levels) {
  std::vector<Entry> group_a, group_b;
  ChooseSplit(node.entries, &group_a, &group_b);

  Node sibling;
  sibling.self = file_->Allocate();
  sibling.level = node.level;
  sibling.entries = std::move(group_b);
  node.entries = std::move(group_a);
  TSQ_RETURN_IF_ERROR(WriteNode(node));
  TSQ_RETURN_IF_ERROR(WriteNode(sibling));

  if (node.self == root_) {
    Node new_root;
    new_root.self = file_->Allocate();
    new_root.level = node.level + 1;
    new_root.entries.push_back(Entry{NodeRect(node), node.self});
    new_root.entries.push_back(Entry{NodeRect(sibling), sibling.self});
    root_ = new_root.self;
    ++height_;
    return WriteNode(new_root);
  }

  // Replace the parent's entry for `node` and add one for the sibling.
  TSQ_CHECK_GE(path.size(), std::size_t{2});
  path.pop_back();
  Node parent;
  TSQ_RETURN_IF_ERROR(ReadNode(path.back(), &parent));
  bool replaced = false;
  for (Entry& entry : parent.entries) {
    if (entry.id == node.self) {
      entry.rect = NodeRect(node);
      replaced = true;
      break;
    }
  }
  TSQ_CHECK(replaced) << "parent lost track of split child";
  parent.entries.push_back(Entry{NodeRect(sibling), sibling.self});
  if (parent.entries.size() <= capacity_) {
    TSQ_RETURN_IF_ERROR(WriteNode(parent));
    return AdjustPath(path);
  }
  return OverflowTreatment(std::move(parent), std::move(path),
                           reinserted_levels);
}

Status RStarTree::AdjustPath(const std::vector<storage::PageId>& path) {
  // Walk from the deepest ancestor up, refreshing each parent's rect for the
  // child on the path.
  for (std::size_t i = path.size(); i-- > 1;) {
    Node child, parent;
    TSQ_RETURN_IF_ERROR(ReadNode(path[i], &child));
    TSQ_RETURN_IF_ERROR(ReadNode(path[i - 1], &parent));
    bool found = false;
    for (Entry& entry : parent.entries) {
      if (entry.id == path[i]) {
        entry.rect = NodeRect(child);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Internal("path child missing from parent during adjust");
    }
    TSQ_RETURN_IF_ERROR(WriteNode(parent));
  }
  return Status::Ok();
}

Status RStarTree::RestoreForLoad(storage::PageId root, std::size_t height,
                                 std::size_t size) {
  if (root_ != storage::kInvalidPageId) {
    return Status::FailedPrecondition("restore requires an empty tree");
  }
  if (size == 0) {
    if (height != 0 || root != storage::kInvalidPageId) {
      return Status::InvalidArgument("empty tree must have no root");
    }
    return Status::Ok();
  }
  Node probe;
  TSQ_RETURN_IF_ERROR(ReadNode(root, &probe));
  if (probe.level + 1 != height) {
    return Status::Corruption("root level does not match recorded height");
  }
  root_ = root;
  height_ = height;
  size_ = size;
  return Status::Ok();
}

// --- bulk loading ------------------------------------------------------------

namespace {

// Splits `count` items into full groups of `capacity`, except that a short
// remainder below `min_fill` borrows from the previous group so every group
// respects the fill invariant. Returned as end indices.
std::vector<std::size_t> PackedChunks(std::size_t count, std::size_t capacity,
                                      std::size_t min_fill) {
  std::vector<std::size_t> ends;
  std::size_t produced = 0;
  while (count - produced > capacity) {
    const std::size_t remaining_after = count - produced - capacity;
    if (remaining_after >= min_fill || remaining_after == 0) {
      produced += capacity;
    } else {
      // Split the final capacity + remainder evenly across two groups.
      const std::size_t tail = capacity + remaining_after;
      produced += (tail + 1) / 2;
    }
    ends.push_back(produced);
  }
  if (produced < count) ends.push_back(count);
  return ends;
}

}  // namespace

Status RStarTree::BulkLoad(std::vector<Entry> entries) {
  if (root_ != storage::kInvalidPageId) {
    return Status::FailedPrecondition("bulk load requires an empty tree");
  }
  if (entries.empty()) return Status::Ok();
  for (const Entry& entry : entries) {
    TSQ_CHECK_EQ(entry.rect.dimensions(), dimensions_);
  }
  size_ = entries.size();

  // STR tiling: recursively sort by each dimension's center and slice into
  // vertical slabs until groups fit in one node.
  struct Tiler {
    std::size_t dims;
    std::uint32_t capacity;
    std::uint32_t min_fill;

    void Tile(std::vector<Entry>& es, std::size_t lo, std::size_t hi,
              std::size_t dim, std::vector<std::pair<std::size_t, std::size_t>>*
                                   groups) const {
      const std::size_t count = hi - lo;
      if (count <= capacity) {
        groups->emplace_back(lo, hi);
        return;
      }
      std::sort(es.begin() + static_cast<std::ptrdiff_t>(lo),
                es.begin() + static_cast<std::ptrdiff_t>(hi),
                [dim](const Entry& a, const Entry& b) {
                  return a.rect.Center(dim) < b.rect.Center(dim);
                });
      if (dim + 1 == dims) {
        // Last dimension: emit (nearly) full node-size groups.
        std::size_t start = lo;
        for (const std::size_t end : PackedChunks(count, capacity, min_fill)) {
          groups->emplace_back(start, lo + end);
          start = lo + end;
        }
        return;
      }
      // Slabs ~ leaves^(1/remaining dims); each slab holds a whole number of
      // node-size groups so only the last dimension's packing creates any
      // partially-filled node.
      const std::size_t leaves = (count + capacity - 1) / capacity;
      const double exponent = 1.0 / static_cast<double>(dims - dim);
      const std::size_t slabs = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(std::pow(static_cast<double>(leaves), exponent))));
      const std::size_t leaves_per_slab = (leaves + slabs - 1) / slabs;
      std::size_t start = lo;
      for (const std::size_t end :
           PackedChunks(count, leaves_per_slab * capacity,
                        min_fill)) {
        Tile(es, start, lo + end, dim + 1, groups);
        start = lo + end;
      }
    }
  };

  // Build one level: pack `level_entries` into nodes, returning the parent
  // entries.
  std::uint32_t level = 0;
  std::vector<Entry> current = std::move(entries);
  while (true) {
    if (current.size() <= capacity_) {
      Node root;
      root.self = file_->Allocate();
      root.level = level;
      root.entries = std::move(current);
      root_ = root.self;
      height_ = level + 1;
      return WriteNode(root);
    }
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    Tiler tiler{dimensions_, capacity_, min_fill_};
    tiler.Tile(current, 0, current.size(), 0, &groups);
    std::vector<Entry> parents;
    parents.reserve(groups.size());
    for (const auto& [lo, hi] : groups) {
      TSQ_CHECK_LT(lo, hi);
      Node node;
      node.self = file_->Allocate();
      node.level = level;
      node.entries.assign(current.begin() + static_cast<std::ptrdiff_t>(lo),
                          current.begin() + static_cast<std::ptrdiff_t>(hi));
      TSQ_CHECK_LE(node.entries.size(), capacity_);
      TSQ_RETURN_IF_ERROR(WriteNode(node));
      parents.push_back(Entry{NodeRect(node), node.self});
    }
    current = std::move(parents);
    ++level;
  }
}

// --- deletion ----------------------------------------------------------------

Status RStarTree::FindLeaf(const Node& node, const Rect& rect,
                           std::uint64_t id,
                           std::vector<storage::PageId>& path,
                           bool* found) const {
  path.push_back(node.self);
  if (node.is_leaf()) {
    for (const Entry& entry : node.entries) {
      if (entry.id == id && entry.rect == rect) {
        *found = true;
        return Status::Ok();
      }
    }
    path.pop_back();
    return Status::Ok();
  }
  for (const Entry& entry : node.entries) {
    if (!entry.rect.Contains(rect)) continue;
    Node child;
    TSQ_RETURN_IF_ERROR(
        ReadNode(static_cast<storage::PageId>(entry.id), &child));
    TSQ_RETURN_IF_ERROR(FindLeaf(child, rect, id, path, found));
    if (*found) return Status::Ok();
  }
  path.pop_back();
  return Status::Ok();
}

Status RStarTree::Delete(const Rect& rect, std::uint64_t id) {
  if (root_ == storage::kInvalidPageId) {
    return Status::NotFound("delete from empty tree");
  }
  Node root;
  TSQ_RETURN_IF_ERROR(ReadNode(root_, &root));
  std::vector<storage::PageId> path;
  bool found = false;
  TSQ_RETURN_IF_ERROR(FindLeaf(root, rect, id, path, &found));
  if (!found) return Status::NotFound("entry not in tree");

  // ---- Phase 1: reads and in-memory planning only. Nothing is written
  // until every fallible read has succeeded, so a failure up to the apply
  // marker below (an injected read fault included) leaves the tree exactly
  // as it was. ----
  std::vector<Node> nodes(path.size());
  nodes[0] = std::move(root);
  for (std::size_t i = 1; i < path.size(); ++i) {
    TSQ_RETURN_IF_ERROR(ReadNode(path[i], &nodes[i]));
  }

  // Erase the entry from the in-memory leaf.
  Node& leaf = nodes.back();
  auto it = std::find_if(leaf.entries.begin(), leaf.entries.end(),
                         [&](const Entry& e) {
                           return e.id == id && e.rect == rect;
                         });
  TSQ_CHECK(it != leaf.entries.end());
  leaf.entries.erase(it);

  // Condense in memory: walking up from the leaf, orphan underfull nodes
  // (their surviving entries get reinserted below) and refresh ancestor
  // rects.
  std::vector<bool> alive(nodes.size(), true);
  std::vector<std::pair<Entry, std::uint32_t>> orphans;
  for (std::size_t i = nodes.size(); i-- > 1;) {
    Node& node = nodes[i];
    Node& parent = nodes[i - 1];
    auto entry_it = std::find_if(
        parent.entries.begin(), parent.entries.end(),
        [&](const Entry& e) { return e.id == path[i]; });
    TSQ_CHECK(entry_it != parent.entries.end());
    if (node.entries.size() < min_fill_) {
      for (const Entry& e : node.entries) {
        orphans.emplace_back(e, node.level);
      }
      parent.entries.erase(entry_it);
      alive[i] = false;
    } else {
      entry_it->rect = NodeRect(node);
    }
  }

  // Plan the root shrink: single-child internal roots collapse into their
  // child. Off-path replacement roots need a read, which is still phase-1
  // work.
  storage::PageId new_root = root_;
  std::size_t new_height = height_;
  Node current = nodes[0];
  while (!current.is_leaf() && current.entries.size() == 1) {
    new_root = static_cast<storage::PageId>(current.entries.front().id);
    --new_height;
    bool on_path = false;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (path[i] == new_root && alive[i]) {
        current = nodes[i];
        on_path = true;
        break;
      }
    }
    if (!on_path) {
      TSQ_RETURN_IF_ERROR(ReadNode(new_root, &current));
    }
  }
  if (current.is_leaf() && current.entries.empty()) {
    new_root = storage::kInvalidPageId;
    new_height = 0;
  }

  // ---- Phase 2: apply. Node writes never consult the read-fault hook, so
  // a delete that triggers no underflow (the common case) is now
  // failure-atomic under fault injection. ----
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (alive[i]) TSQ_RETURN_IF_ERROR(WriteNode(nodes[i]));
  }
  root_ = new_root;
  height_ = new_height;
  --size_;

  // Reinsert orphans at their original levels (deepest first so that leaf
  // entries go back before higher-level subtrees rely on them). This is the
  // one part of a delete that can still fail after mutation — reinsertion
  // traverses (reads) the tree — which is why SequenceIndex::Rebuild exists
  // as the caller-level compensation.
  std::sort(orphans.begin(), orphans.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [entry, level] : orphans) {
    std::vector<bool> reinserted(kMaxLevels, false);
    if (root_ == storage::kInvalidPageId && level > 0) {
      return Status::Internal("orphaned subtree with no tree to hold it");
    }
    TSQ_RETURN_IF_ERROR(InsertAtLevel(entry, level, reinserted));
  }
  return Status::Ok();
}

// --- search ------------------------------------------------------------------

Status RStarTree::Search(const RectPredicate& predicate,
                         std::vector<std::uint64_t>* ids,
                         SearchStats* stats) const {
  if (root_ == storage::kInvalidPageId) return Status::Ok();
  std::vector<storage::PageId> stack{root_};
  NodeView node;
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    TSQ_RETURN_IF_ERROR(ReadNodeView(page, &node, stats));
    for (std::size_t i = 0; i < node.size(); ++i) {
      if (!predicate(node.rect(i))) continue;
      if (node.is_leaf) {
        ids->push_back(node.ids[i]);
        if (stats != nullptr) ++stats->matches;
      } else {
        stack.push_back(static_cast<storage::PageId>(node.ids[i]));
      }
    }
  }
  return Status::Ok();
}

Status RStarTree::WindowQuery(const Rect& window,
                              std::vector<std::uint64_t>* ids,
                              SearchStats* stats) const {
  return Search(
      [&window](const RectView& rect) { return rect.Intersects(window); },
      ids, stats);
}

// --- introspection -----------------------------------------------------------

Status RStarTree::VisitNodes(
    const std::function<void(const NodeView&)>& fn) const {
  if (root_ == storage::kInvalidPageId) return Status::Ok();
  std::vector<storage::PageId> stack{root_};
  NodeView node;
  while (!stack.empty()) {
    const storage::PageId page = stack.back();
    stack.pop_back();
    TSQ_RETURN_IF_ERROR(ReadNodeView(page, &node));
    fn(node);
    if (!node.is_leaf) {
      for (const std::uint64_t child : node.ids) {
        stack.push_back(static_cast<storage::PageId>(child));
      }
    }
  }
  return Status::Ok();
}

Status RStarTree::CheckInvariants() const {
  if (root_ == storage::kInvalidPageId) {
    if (size_ != 0) return Status::Internal("empty tree with nonzero size");
    return Status::Ok();
  }
  std::size_t leaf_entries = 0;
  std::optional<std::uint32_t> leaf_level;
  Status failure = Status::Ok();

  // (page, expected rect or nullopt for root, expected level or nullopt).
  struct Pending {
    storage::PageId page;
    std::optional<Rect> rect;
    std::optional<std::uint32_t> level;
  };
  std::vector<Pending> stack{{root_, std::nullopt, std::nullopt}};
  while (!stack.empty()) {
    const Pending item = stack.back();
    stack.pop_back();
    Node node;
    TSQ_RETURN_IF_ERROR(ReadNode(item.page, &node));
    if (node.entries.empty()) {
      return Status::Internal("empty node in non-empty tree");
    }
    if (item.level.has_value() && node.level != *item.level) {
      return Status::Internal("child level does not match parent level - 1");
    }
    if (item.rect.has_value() && !(NodeRect(node) == *item.rect)) {
      return Status::Internal("parent rect is not the tight MBR of child");
    }
    const bool is_root = item.page == root_;
    if (!is_root && node.entries.size() < min_fill_) {
      return Status::Internal("node underflow");
    }
    if (node.entries.size() > capacity_) {
      return Status::Internal("node overflow");
    }
    if (node.is_leaf()) {
      if (leaf_level.has_value() && node.level != *leaf_level) {
        return Status::Internal("leaves at different levels");
      }
      leaf_level = node.level;
      leaf_entries += node.entries.size();
    } else {
      for (const Entry& entry : node.entries) {
        stack.push_back(Pending{static_cast<storage::PageId>(entry.id),
                                entry.rect, node.level - 1});
      }
    }
  }
  if (leaf_entries != size_) {
    return Status::Internal("leaf entry count does not match size()");
  }
  return failure;
}

}  // namespace tsq::rstar
