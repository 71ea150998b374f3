#include "rstar/join.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/page_file.h"

namespace tsq::rstar {
namespace {

using Pair = std::pair<std::uint64_t, std::uint64_t>;

// Monotone, symmetric proximity test: squared gap between two rects of
// `dims` dimensions, each prepared as its lows followed by its highs.
struct WithinSquared {
  std::size_t dims;
  double radius2;

  std::size_t prepared_size() const { return 2 * dims; }
  void Prepare(const RectView& r, double* out) const {
    for (std::size_t d = 0; d < dims; ++d) {
      out[d] = r.low(d);
      out[dims + d] = r.high(d);
    }
  }
  bool operator()(const double* a, const double* b) const {
    double d2 = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double gap =
          std::max({0.0, a[d] - b[dims + d], b[d] - a[dims + d]});
      d2 += gap * gap;
    }
    return d2 <= radius2;
  }
};

// A constant verdict; it prepares nothing.
template <bool kVerdict>
struct Constant {
  std::size_t prepared_size() const { return 0; }
  void Prepare(const RectView&, double*) const {}
  bool operator()(const double*, const double*) const { return kVerdict; }
};
using AcceptAll = Constant<true>;
using RejectAll = Constant<false>;

// A non-identity, monotone map: dimension d is scaled by (d + 2) and shifted
// by d. Rect containment survives it, so the join may prune with it.
void Stretch(const RectView& r, Rect* out) {
  out->Assign(r);
  for (std::size_t d = 0; d < r.dimensions(); ++d) {
    out->set_low(d, r.low(d) * static_cast<double>(d + 2) +
                        static_cast<double>(d));
    out->set_high(d, r.high(d) * static_cast<double>(d + 2) +
                         static_cast<double>(d));
  }
}

// Every reported pair, in report order.
template <JoinPredicate P>
std::vector<Pair> Join(const RStarTree& tree, const RectMap& map,
                       const P& predicate, SearchStats* stats = nullptr) {
  std::vector<Pair> pairs;
  const Status status = SelfJoin(
      tree, map, predicate,
      [&pairs](std::uint64_t a, std::uint64_t b) { pairs.emplace_back(a, b); },
      stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return pairs;
}

// The nested loop the join must reproduce: each unordered pair of distinct
// ids once, smaller id first, decided on the prepared mapped rects in that
// order.
template <JoinPredicate P>
std::vector<Pair> BruteForce(const std::vector<Point>& points,
                             const RectMap& map, const P& predicate) {
  const std::size_t stride = predicate.prepared_size();
  std::vector<double> prepared(points.size() * stride);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Rect r = Rect::FromPoint(points[i]);
    Rect mapped = r;
    if (map) map(r, &mapped);
    predicate.Prepare(mapped, prepared.data() + i * stride);
  }
  std::vector<Pair> pairs;
  for (std::size_t a = 0; a < points.size(); ++a) {
    for (std::size_t b = a + 1; b < points.size(); ++b) {
      if (predicate(prepared.data() + a * stride,
                    prepared.data() + b * stride)) {
        pairs.emplace_back(a, b);
      }
    }
  }
  return pairs;
}

// Joins `tree` (holding `points`, id = index) and checks the result against
// the nested loop: same pairs, each exactly once, a < b.
template <JoinPredicate P>
void ExpectMatchesBruteForce(const RStarTree& tree,
                             const std::vector<Point>& points,
                             const RectMap& map, const P& predicate) {
  std::vector<Pair> joined = Join(tree, map, predicate);
  for (const auto& [a, b] : joined) EXPECT_LT(a, b);
  std::sort(joined.begin(), joined.end());
  EXPECT_EQ(std::adjacent_find(joined.begin(), joined.end()), joined.end())
      << "a pair was reported twice";
  EXPECT_EQ(joined, BruteForce(points, map, predicate));
}

std::vector<Point> InsertRandomPoints(RStarTree& tree, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back({rng.Uniform(-50.0, 50.0), rng.Uniform(-50.0, 50.0)});
    EXPECT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  return points;
}

struct TreeShape {
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  std::size_t entries = 0;  // over all nodes
  std::vector<storage::PageId> leaf_pages;
  std::vector<storage::PageId> level1_pages;
};

TreeShape ShapeOf(const RStarTree& tree) {
  TreeShape shape;
  EXPECT_TRUE(tree.VisitNodes([&shape](const RStarTree::NodeView& node) {
                    ++shape.nodes;
                    shape.entries += node.size();
                    if (node.is_leaf) {
                      ++shape.leaves;
                      shape.leaf_pages.push_back(node.page);
                    } else if (node.level == 1) {
                      shape.level1_pages.push_back(node.page);
                    }
                  })
                  .ok());
  return shape;
}

TEST(SpatialJoinTest, EmptyInputsYieldNothing) {
  storage::PageFile file;
  RStarTree tree(&file, 2);
  SearchStats stats;
  EXPECT_TRUE(Join(tree, nullptr, AcceptAll{}, &stats).empty());
  EXPECT_EQ(stats.nodes_accessed, 0u);
  // One entry has no partner.
  ASSERT_TRUE(tree.Insert(Rect::FromPoint({0.0, 0.0}), 1).ok());
  EXPECT_TRUE(Join(tree, nullptr, AcceptAll{}, &stats).empty());
  EXPECT_EQ(stats.nodes_accessed, 1u);
}

TEST(SpatialJoinTest, MatchesBruteForceOnDistancePredicate) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 8;
  RStarTree tree(&file, 2, options);
  const std::vector<Point> points = InsertRandomPoints(tree, 250, 1);
  ASSERT_GE(tree.height(), 3u);
  ExpectMatchesBruteForce(tree, points, Stretch, WithinSquared{2, 49.0});
  ExpectMatchesBruteForce(tree, points, nullptr, WithinSquared{2, 25.0});
}

TEST(SpatialJoinTest, SelfJoinFindsClusters) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 2, options);
  Rng rng(2);
  // Two tight clusters of 10 points each, far apart.
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(tree.Insert(Rect::FromPoint({c * 1000.0 +
                                                   rng.Uniform(-1.0, 1.0),
                                               rng.Uniform(-1.0, 1.0)}),
                              c * 10 + i)
                      .ok());
    }
  }
  const std::vector<Pair> joined = Join(tree, nullptr, WithinSquared{2, 16.0});
  // Only intra-cluster pairs: 2 * C(10,2) = 90.
  EXPECT_EQ(joined.size(), 90u);
  for (const auto& [a, b] : joined) EXPECT_EQ(a / 10, b / 10);
}

TEST(SpatialJoinTest, DifferentHeightsHandled) {
  // Capacity 4: 3 points fit in the root leaf, 6 split it once, 150 need
  // at least two internal levels.
  for (const auto& [count, min_height, max_height] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {3, 1, 1}, {6, 2, 2}, {150, 3, 10}}) {
    storage::PageFile file;
    TreeOptions options;
    options.capacity_override = 4;
    RStarTree tree(&file, 2, options);
    const std::vector<Point> points = InsertRandomPoints(tree, count, count);
    EXPECT_GE(tree.height(), min_height) << count;
    EXPECT_LE(tree.height(), max_height) << count;
    ExpectMatchesBruteForce(tree, points, Stretch, WithinSquared{2, 400.0});
    ExpectMatchesBruteForce(tree, points, nullptr, AcceptAll{});
  }
}

TEST(SpatialJoinTest, RectMapsAppliedPerEntry) {
  // Points 10 apart never join within 0.55; divided by 100 they join with
  // their five nearest neighbours on each side.
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 1, options);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 100; ++i) {
    points.push_back({10.0 * static_cast<double>((i * 37) % 100)});
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  const WithinSquared predicate{1, 0.55 * 0.55};
  EXPECT_TRUE(Join(tree, nullptr, predicate).empty());

  std::size_t map_calls = 0;
  const RectMap shrink = [&map_calls](const RectView& r, Rect* out) {
    ++map_calls;
    *out = Rect({r.low(0) / 100.0}, {r.high(0) / 100.0});
  };
  ExpectMatchesBruteForce(tree, points, shrink, predicate);
  EXPECT_EQ(BruteForce(points, shrink, predicate).size(), 100u * 5 - 15);
  // Each entry of each node is mapped once per join, not once per pair.
  map_calls = 0;
  Join(tree, shrink, predicate);
  EXPECT_EQ(map_calls, ShapeOf(tree).entries);
}

TEST(SpatialJoinTest, NodeCacheBoundsPhysicalReads) {
  // Each page is fetched once per join, however many node pairs it is in.
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  InsertRandomPoints(tree, 200, 6);
  const TreeShape shape = ShapeOf(tree);
  SearchStats stats;
  file.ResetStats();
  EXPECT_EQ(Join(tree, nullptr, AcceptAll{}, &stats).size(), 200u * 199 / 2);
  EXPECT_EQ(stats.nodes_accessed, shape.nodes);
  EXPECT_EQ(stats.leaf_nodes_accessed, shape.leaves);
  EXPECT_EQ(file.stats().reads, shape.nodes);
}

TEST(SpatialJoinTest, CountsEveryNodeOnce) {
  // A self-join pairs every node with itself, so a predicate that rejects
  // everything still reads each node, once.
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 8;
  RStarTree tree(&file, 2, options);
  InsertRandomPoints(tree, 300, 4);
  const TreeShape shape = ShapeOf(tree);
  SearchStats stats;
  EXPECT_TRUE(Join(tree, nullptr, RejectAll{}, &stats).empty());
  EXPECT_EQ(stats.nodes_accessed, shape.nodes);
  EXPECT_EQ(stats.leaf_nodes_accessed, shape.leaves);
}

// Rewrites `page` of the tree's own file with `edit` applied to its bytes.
void TamperPage(storage::PageFile& file, storage::PageId page,
                const std::function<void(std::uint8_t*)>& edit) {
  storage::Page bytes;
  ASSERT_TRUE(file.Read(page, &bytes).ok());
  edit(bytes.bytes.data());
  ASSERT_TRUE(file.Write(page, bytes).ok());
}

TEST(SpatialJoinTest, EmptyNodeIsCorruption) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  InsertRandomPoints(tree, 40, 7);
  const TreeShape shape = ShapeOf(tree);
  ASSERT_FALSE(shape.leaf_pages.empty());
  // Node header: u16 magic, u16 level, u32 entry count.
  TamperPage(file, shape.leaf_pages.back(), [](std::uint8_t* bytes) {
    const std::uint32_t count = 0;
    std::memcpy(bytes + 4, &count, sizeof count);
  });
  const Status status =
      SelfJoin(tree, nullptr, AcceptAll{},
               [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(SpatialJoinTest, ChildPointingAtRootIsCorruption) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  InsertRandomPoints(tree, 150, 8);
  ASSERT_GE(tree.height(), 3u);
  const TreeShape shape = ShapeOf(tree);
  ASSERT_FALSE(shape.level1_pages.empty());
  // The first entry's id (its child page) follows the 8-byte header.
  const std::uint64_t root = tree.root_page();
  TamperPage(file, shape.level1_pages.front(), [root](std::uint8_t* bytes) {
    std::memcpy(bytes + 8, &root, sizeof root);
  });
  const Status status =
      SelfJoin(tree, nullptr, AcceptAll{},
               [](std::uint64_t, std::uint64_t) {});
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

}  // namespace
}  // namespace tsq::rstar
