#include "rstar/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/page_file.h"

namespace tsq::rstar {
namespace {

Point RandomPoint(std::size_t dims, Rng& rng, double lo = -100.0,
                  double hi = 100.0) {
  Point p(dims);
  for (double& v : p) v = rng.Uniform(lo, hi);
  return p;
}

// Brute-force window query over raw points.
std::set<std::uint64_t> BruteWindow(const std::vector<Point>& points,
                                    const Rect& window) {
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (window.ContainsPoint(points[i])) out.insert(i);
  }
  return out;
}

std::set<std::uint64_t> ResultIds(const std::vector<std::uint64_t>& ids) {
  return std::set<std::uint64_t>(ids.begin(), ids.end());
}

// Squared distance from `point` to the nearest point of `rect` (0 inside):
// a lower bound for everything the rect covers.
double SquaredDistanceToRect(const RectView& rect, const Point& point) {
  double acc = 0.0;
  for (std::size_t d = 0; d < rect.dimensions(); ++d) {
    const double gap = std::max({rect.low(d) - point[d], 0.0,
                                 point[d] - rect.high(d)});
    acc += gap * gap;
  }
  return acc;
}

TEST(RStarTreeTest, EmptyTreeBehaviour) {
  storage::PageFile file;
  RStarTree tree(&file, 2);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(Rect({-1.0, -1.0}, {1.0, 1.0}), &results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.Delete(Rect::FromPoint({0.0, 0.0}), 0).code(),
            StatusCode::kNotFound);
}

TEST(RStarTreeTest, SingleInsertAndQuery) {
  storage::PageFile file;
  RStarTree tree(&file, 2);
  ASSERT_TRUE(tree.Insert(Rect::FromPoint({1.0, 2.0}), 7).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(Rect({0.0, 0.0}, {2.0, 3.0}), &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 7u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RStarTreeTest, CapacityDerivedFromPageSize) {
  storage::PageFile file;
  RStarTree tree(&file, 6);
  // Entry: 8 + 96 bytes; header 8 bytes -> (4096-8)/104 = 39.
  EXPECT_EQ(tree.capacity(), 39u);
  EXPECT_EQ(RStarTree::MaxCapacity(6), 39u);
  EXPECT_GE(tree.min_fill(), 1u);
  EXPECT_LE(tree.min_fill(), tree.capacity() / 2 + 1);
  // One 255-dimensional entry fills a page; wider ones (counts read from a
  // checkpoint may be anything) fit none, without overflowing.
  EXPECT_EQ(RStarTree::MaxCapacity(255), 1u);
  EXPECT_EQ(RStarTree::MaxCapacity(256), 0u);
  EXPECT_EQ(RStarTree::MaxCapacity(SIZE_MAX), 0u);
}

class RStarTreeParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RStarTreeParamTest, BulkInsertInvariantsAndQueries) {
  const auto [dims, count] = GetParam();
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 8;  // small capacity -> deep trees
  RStarTree tree(&file, dims, options);
  Rng rng(dims * 1000 + count);
  std::vector<Point> points;
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(RandomPoint(dims, rng));
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  EXPECT_EQ(tree.size(), count);
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();

  // Random window queries match brute force.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> lo(dims), hi(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double a = rng.Uniform(-120.0, 120.0);
      const double b = rng.Uniform(-120.0, 120.0);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const Rect window(lo, hi);
    std::vector<std::uint64_t> results;
    ASSERT_TRUE(tree.WindowQuery(window, &results).ok());
    EXPECT_EQ(ResultIds(results), BruteWindow(points, window));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RStarTreeParamTest,
    ::testing::Values(std::make_tuple(1, 100), std::make_tuple(2, 200),
                      std::make_tuple(2, 1000), std::make_tuple(4, 500),
                      std::make_tuple(6, 300)));

TEST(RStarTreeTest, RectangleDataSupported) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 2, options);
  Rng rng(5);
  std::vector<Rect> rects;
  for (std::size_t i = 0; i < 300; ++i) {
    const double x = rng.Uniform(-50.0, 50.0);
    const double y = rng.Uniform(-50.0, 50.0);
    rects.push_back(Rect({x, y}, {x + rng.Uniform(0.0, 5.0),
                                  y + rng.Uniform(0.0, 5.0)}));
    ASSERT_TRUE(tree.Insert(rects.back(), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  const Rect window({-10.0, -10.0}, {10.0, 10.0});
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(window, &results).ok());
  std::set<std::uint64_t> expected;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (window.Intersects(rects[i])) expected.insert(i);
  }
  EXPECT_EQ(ResultIds(results), expected);
}

TEST(RStarTreeTest, DuplicatePointsAllowed) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Insert(Rect::FromPoint({1.0, 1.0}), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(
      tree.WindowQuery(Rect({0.0, 0.0}, {2.0, 2.0}), &results).ok());
  EXPECT_EQ(results.size(), 50u);
}

TEST(RStarTreeTest, SearchCountsNodeAccesses) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 8;
  RStarTree tree(&file, 2, options);
  Rng rng(6);
  for (std::size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(RandomPoint(2, rng)), i).ok());
  }
  SearchStats stats;
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(Rect({-5.0, -5.0}, {5.0, 5.0}), &results,
                               &stats)
                  .ok());
  EXPECT_GE(stats.nodes_accessed, 1u);
  EXPECT_GE(stats.nodes_accessed, stats.leaf_nodes_accessed);
  EXPECT_EQ(stats.matches, results.size());
  // A selective query must not read the whole tree.
  SearchStats all_stats;
  std::vector<std::uint64_t> all;
  ASSERT_TRUE(tree.WindowQuery(Rect({-200.0, -200.0}, {200.0, 200.0}), &all,
                               &all_stats)
                  .ok());
  EXPECT_EQ(all.size(), 500u);
  EXPECT_LT(stats.nodes_accessed, all_stats.nodes_accessed);
}

TEST(RStarTreeTest, DeleteMaintainsInvariants) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 2, options);
  Rng rng(7);
  std::vector<Point> points;
  const std::size_t count = 400;
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(RandomPoint(2, rng));
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  // Delete a random half.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::set<std::uint64_t> remaining(order.begin(), order.end());
  for (std::size_t k = 0; k < count / 2; ++k) {
    const std::size_t id = order[k];
    ASSERT_TRUE(tree.Delete(Rect::FromPoint(points[id]), id).ok())
        << "delete " << id;
    remaining.erase(id);
    if (k % 50 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString();
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.size(), count / 2);
  // Queries still match brute force over the survivors.
  const Rect window({-60.0, -60.0}, {60.0, 60.0});
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(window, &results).ok());
  std::set<std::uint64_t> expected;
  for (std::uint64_t id : remaining) {
    if (window.ContainsPoint(points[id])) expected.insert(id);
  }
  EXPECT_EQ(ResultIds(results), expected);
}

TEST(RStarTreeTest, DeleteEverything) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 1, options);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 60; ++i) {
    points.push_back({static_cast<double>(i)});
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  for (std::size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(tree.Delete(Rect::FromPoint(points[i]), i).ok());
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  // Tree is reusable after emptying.
  ASSERT_TRUE(tree.Insert(Rect::FromPoint({5.0}), 99).ok());
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RStarTreeTest, DeleteMissingEntryIsNotFound) {
  storage::PageFile file;
  RStarTree tree(&file, 2);
  ASSERT_TRUE(tree.Insert(Rect::FromPoint({1.0, 1.0}), 1).ok());
  EXPECT_EQ(tree.Delete(Rect::FromPoint({1.0, 1.0}), 2).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(Rect::FromPoint({9.0, 9.0}), 1).code(),
            StatusCode::kNotFound);
}

TEST(RStarTreeTest, HugeCoordinatesWhoseMarginsOverflowStillSplit) {
  // Every x is ±1e308, so each split candidate's margin sum overflows to
  // +inf and none compares below the initial best; the split must still
  // pick a distribution.
  storage::PageFile file;
  RStarTree tree(&file, 2);
  for (std::size_t i = 0; i < 400; ++i) {
    const double x = i % 2 == 0 ? 1e308 : -1e308;
    ASSERT_TRUE(
        tree.Insert(Rect::FromPoint({x, static_cast<double>(i)}), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(
      tree.WindowQuery(Rect({-1e308, 0.0}, {1e308, 399.0}), &results).ok());
  std::set<std::uint64_t> all;
  for (std::uint64_t i = 0; i < 400; ++i) all.insert(i);
  EXPECT_EQ(ResultIds(results), all);
}

TEST(RStarTreeTest, SortedInsertionOrderStillBalanced) {
  // Monotone insertion is the classic R-tree worst case; R* must stay sound.
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 2, options);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 500; ++i) {
    points.push_back({static_cast<double>(i), static_cast<double>(i)});
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_GE(tree.height(), 3u);
  const Rect window({100.0, 100.0}, {150.0, 150.0});
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(window, &results).ok());
  EXPECT_EQ(results.size(), 51u);
}

TEST(RStarTreeTest, CustomPredicateSearch) {
  // The MT-index hook: predicates other than plain window intersection.
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 8;
  RStarTree tree(&file, 2, options);
  Rng rng(11);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 300; ++i) {
    points.push_back(RandomPoint(2, rng));
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  // Predicate: rect lies within L2 distance 30 of the origin (monotone).
  const Point origin = {0.0, 0.0};
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.Search(
                      [&](const RectView& rect) {
                        return SquaredDistanceToRect(rect, origin) <= 900.0;
                      },
                      &results)
                  .ok());
  std::set<std::uint64_t> expected;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i][0] * points[i][0] + points[i][1] * points[i][1] <= 900.0) {
      expected.insert(i);
    }
  }
  EXPECT_EQ(ResultIds(results), expected);
}

TEST(RStarTreeTest, CorruptedPageSurfacesAsError) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  Rng rng(12);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(RandomPoint(2, rng)), i).ok());
  }
  ASSERT_TRUE(file.CorruptForTesting(tree.root_page(), 100).ok());
  std::vector<std::uint64_t> results;
  EXPECT_EQ(
      tree.WindowQuery(Rect({-200.0, -200.0}, {200.0, 200.0}), &results)
          .code(),
      StatusCode::kCorruption);
}

class BulkLoadTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BulkLoadTest, InvariantsAndQueryEquivalence) {
  const auto [dims, count] = GetParam();
  Rng rng(dims * 131 + count);
  std::vector<Point> points;
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(RandomPoint(dims, rng));
    entries.push_back(Entry{Rect::FromPoint(points.back()), i});
  }
  storage::PageFile bulk_file;
  TreeOptions options;
  options.capacity_override = 8;
  RStarTree bulk(&bulk_file, dims, options);
  ASSERT_TRUE(bulk.BulkLoad(entries).ok());
  EXPECT_EQ(bulk.size(), count);
  ASSERT_TRUE(bulk.CheckInvariants().ok())
      << bulk.CheckInvariants().ToString();

  // Same query answers as an insertion-built tree (and brute force).
  storage::PageFile incr_file;
  RStarTree incremental(&incr_file, dims, options);
  for (const Entry& e : entries) {
    ASSERT_TRUE(incremental.Insert(e.rect, e.id).ok());
  }
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> lo(dims), hi(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double a = rng.Uniform(-120.0, 120.0);
      const double b = rng.Uniform(-120.0, 120.0);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const Rect window(lo, hi);
    std::vector<std::uint64_t> from_bulk, from_incremental;
    ASSERT_TRUE(bulk.WindowQuery(window, &from_bulk).ok());
    ASSERT_TRUE(incremental.WindowQuery(window, &from_incremental).ok());
    EXPECT_EQ(ResultIds(from_bulk), ResultIds(from_incremental));
    EXPECT_EQ(ResultIds(from_bulk), BruteWindow(points, window));
  }
  // Bulk trees are denser: never more pages than the insertion-built tree.
  EXPECT_LE(bulk_file.page_count(), incr_file.page_count());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BulkLoadTest,
    ::testing::Values(std::make_tuple(1, 9), std::make_tuple(2, 100),
                      std::make_tuple(2, 1000), std::make_tuple(4, 500),
                      std::make_tuple(6, 777), std::make_tuple(3, 8),
                      std::make_tuple(2, 65)));

TEST(BulkLoadExtraTest, RequiresEmptyTreeAndSupportsUpdatesAfter) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 6;
  RStarTree tree(&file, 2, options);
  Rng rng(77);
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < 200; ++i) {
    entries.push_back(Entry{Rect::FromPoint(RandomPoint(2, rng)), i});
  }
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  EXPECT_EQ(tree.BulkLoad(entries).code(), StatusCode::kFailedPrecondition);

  // Inserts and deletes keep working on a bulk-loaded tree.
  ASSERT_TRUE(tree.Insert(Rect::FromPoint({0.0, 0.0}), 999).ok());
  ASSERT_TRUE(tree.Delete(entries[5].rect, 5).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.size(), 200u);
}

TEST(BulkLoadExtraTest, EmptyAndSingleton) {
  storage::PageFile file;
  RStarTree tree(&file, 2);
  ASSERT_TRUE(tree.BulkLoad({}).ok());
  EXPECT_EQ(tree.size(), 0u);
  ASSERT_TRUE(tree.BulkLoad({Entry{Rect::FromPoint({1.0, 2.0}), 7}}).ok());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<std::uint64_t> results;
  ASSERT_TRUE(tree.WindowQuery(Rect({0.0, 0.0}, {2.0, 3.0}), &results).ok());
  ASSERT_EQ(results.size(), 1u);
}

TEST(RStarTreeTest, ReadNodeViewReusesBuffersAcrossNodes) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  Rng rng(14);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 60; ++i) {
    points.push_back(RandomPoint(2, rng));
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(points.back()), i).ok());
  }
  // One view decoded into over and over must always equal a fresh decode,
  // whatever size the previous node had; leaf rects are the inserted points.
  std::vector<storage::PageId> pages;
  ASSERT_TRUE(tree.VisitNodes([&](const RStarTree::NodeView& view) {
                    pages.push_back(view.page);
                  })
                  .ok());
  RStarTree::NodeView reused;
  for (const storage::PageId page : pages) {
    RStarTree::NodeView fresh;
    ASSERT_TRUE(tree.ReadNodeView(page, &reused).ok());
    ASSERT_TRUE(tree.ReadNodeView(page, &fresh).ok());
    EXPECT_EQ(reused.page, page);
    EXPECT_EQ(reused.level, fresh.level);
    EXPECT_EQ(reused.ids, fresh.ids);
    EXPECT_EQ(reused.coords, fresh.coords);
    if (!reused.is_leaf) continue;
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused.entry(i).rect, Rect::FromPoint(points[reused.ids[i]]));
    }
  }
}

TEST(RStarTreeTest, NodeCountOverflowingThePageIsCorruption) {
  // Six dimensions: 104-byte entries, 39 per page. A count of 40 passes the
  // capacity + 1 bound but would run past the page, so decoding must reject
  // it instead of reading beyond the buffer.
  storage::PageFile file;
  RStarTree tree(&file, 6);
  ASSERT_EQ(tree.capacity(), 39u);
  const storage::PageId page = file.Allocate();
  storage::Page bytes;
  const std::uint16_t magic = 0x5254;
  const std::uint16_t level = 0;
  const std::uint32_t count = 40;
  std::memcpy(bytes.bytes.data(), &magic, 2);
  std::memcpy(bytes.bytes.data() + 2, &level, 2);
  std::memcpy(bytes.bytes.data() + 4, &count, 4);
  ASSERT_TRUE(file.Write(page, bytes).ok());
  RStarTree::NodeView view;
  EXPECT_EQ(tree.ReadNodeView(page, &view).code(), StatusCode::kCorruption);
}

TEST(RStarTreeTest, VisitNodesSeesWholeTree) {
  storage::PageFile file;
  TreeOptions options;
  options.capacity_override = 4;
  RStarTree tree(&file, 2, options);
  Rng rng(13);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Rect::FromPoint(RandomPoint(2, rng)), i).ok());
  }
  std::size_t leaf_entries = 0;
  std::size_t max_level = 0;
  ASSERT_TRUE(tree.VisitNodes([&](const RStarTree::NodeView& view) {
                    if (view.is_leaf) leaf_entries += view.size();
                    max_level = std::max<std::size_t>(max_level, view.level);
                  })
                  .ok());
  EXPECT_EQ(leaf_entries, 100u);
  EXPECT_EQ(max_level + 1, tree.height());
}

}  // namespace
}  // namespace tsq::rstar
