#ifndef TSQ_RSTAR_JOIN_H_
#define TSQ_RSTAR_JOIN_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "rstar/rstar_tree.h"

namespace tsq::rstar {

/// A rectangle-pair predicate used to prune the join. Must be *monotone*
/// (whenever it rejects a pair of rectangles, it also rejects every pair of
/// rectangles contained in them) and *symmetric* (it decides (x, y) as it
/// decides (y, x)): a self-join prunes unordered node pairs. Distance
/// lower bounds such as core::RectPairWithinSquaredDistance are both.
using JoinPredicate = std::function<bool(const Rect&, const Rect&)>;

/// Receives each qualifying pair of leaf-entry ids, smaller id first.
using JoinCallback = std::function<void(std::uint64_t a, std::uint64_t b)>;

/// Per-entry rectangle preprocessing (e.g. applying a transformation MBR,
/// Section 4.1's join): applied once per entry when its node is first
/// loaded, so the cost is not paid per candidate pair. Identity when empty.
using RectMap = std::function<Rect(const RectView&)>;

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
///
/// Nodes are read through one join-local cache: each page is fetched once
/// per join (the behaviour of a buffered R*-tree), and `stats` counts those
/// fetches. Returns Corruption, instead of aborting or recursing without
/// bound, when a node has no entries or a child's level is not its
/// parent's level - 1; the recursion is thereby at most the root's level
/// deep.
Status SelfJoin(const RStarTree& tree, const RectMap& map,
                const JoinPredicate& predicate, const JoinCallback& callback,
                SearchStats* stats = nullptr);

}  // namespace tsq::rstar

#endif  // TSQ_RSTAR_JOIN_H_
