#include "rstar/rect.h"

#include "gtest/gtest.h"

namespace tsq::rstar {
namespace {

Rect MakeRect(std::vector<double> low, std::vector<double> high) {
  return Rect(std::move(low), std::move(high));
}

TEST(RectTest, BasicAccessors) {
  const Rect r = MakeRect({0.0, 1.0}, {2.0, 4.0});
  EXPECT_EQ(r.dimensions(), 2u);
  EXPECT_EQ(r.low(0), 0.0);
  EXPECT_EQ(r.high(1), 4.0);
  EXPECT_EQ(r.Extent(0), 2.0);
  EXPECT_EQ(r.Extent(1), 3.0);
  EXPECT_EQ(r.Area(), 6.0);
  EXPECT_EQ(r.Margin(), 5.0);
  EXPECT_EQ(r.Center(1), 2.5);
}

TEST(RectTest, FromPointIsDegenerate) {
  const Rect r = Rect::FromPoint({1.0, 2.0, 3.0});
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_EQ(r.low(2), r.high(2));
  EXPECT_FALSE(r.empty());
}

TEST(RectTest, EmptyRect) {
  const Rect r = Rect::Empty(3);
  EXPECT_TRUE(r.empty());
  Rect grown = r;
  grown.Enlarge(Rect::FromPoint({1.0, 2.0, 3.0}));
  EXPECT_FALSE(grown.empty());
  EXPECT_EQ(grown, Rect::FromPoint({1.0, 2.0, 3.0}));
}

TEST(RectTest, IntersectionCases) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  EXPECT_TRUE(a.Intersects(MakeRect({1.0, 1.0}, {3.0, 3.0})));
  EXPECT_TRUE(a.Intersects(MakeRect({2.0, 2.0}, {3.0, 3.0})));  // touching
  EXPECT_FALSE(a.Intersects(MakeRect({2.1, 0.0}, {3.0, 2.0})));
  EXPECT_FALSE(a.Intersects(MakeRect({0.0, -2.0}, {2.0, -0.1})));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(RectTest, Containment) {
  const Rect a = MakeRect({0.0, 0.0}, {4.0, 4.0});
  EXPECT_TRUE(a.Contains(MakeRect({1.0, 1.0}, {2.0, 2.0})));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_FALSE(a.Contains(MakeRect({1.0, 1.0}, {5.0, 2.0})));
  EXPECT_TRUE(a.ContainsPoint({0.0, 4.0}));
  EXPECT_FALSE(a.ContainsPoint({-0.1, 2.0}));
}

TEST(RectTest, EnlargeAndEnlargement) {
  Rect a = MakeRect({0.0, 0.0}, {1.0, 1.0});
  EXPECT_NEAR(a.Enlargement(MakeRect({2.0, 0.0}, {3.0, 1.0})), 2.0, 1e-12);
  EXPECT_NEAR(a.Enlargement(MakeRect({0.2, 0.2}, {0.8, 0.8})), 0.0, 1e-12);
  a.Enlarge(MakeRect({2.0, 0.0}, {3.0, 1.0}));
  EXPECT_EQ(a, MakeRect({0.0, 0.0}, {3.0, 1.0}));
}

TEST(RectTest, OverlapArea) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  EXPECT_NEAR(a.OverlapArea(MakeRect({1.0, 1.0}, {3.0, 3.0})), 1.0, 1e-12);
  EXPECT_EQ(a.OverlapArea(MakeRect({5.0, 5.0}, {6.0, 6.0})), 0.0);
  EXPECT_NEAR(a.OverlapArea(a), 4.0, 1e-12);
}

TEST(RectTest, CenterSquaredDistance) {
  const Rect a = MakeRect({0.0, 0.0}, {2.0, 2.0});
  const Rect b = MakeRect({4.0, 1.0}, {6.0, 3.0});
  EXPECT_NEAR(a.CenterSquaredDistance(b), 16.0 + 1.0, 1e-12);
}

TEST(RectTest, BoundingRect) {
  const std::vector<Rect> rects = {MakeRect({0.0}, {1.0}),
                                   MakeRect({5.0}, {6.0}),
                                   MakeRect({-2.0}, {-1.0})};
  EXPECT_EQ(BoundingRect(rects), MakeRect({-2.0}, {6.0}));
}

TEST(RectTest, ToStringIsReadable) {
  EXPECT_EQ(MakeRect({0.0, 1.0}, {2.0, 3.0}).ToString(), "(0..2)x(1..3)");
}

TEST(RectDeathTest, MismatchedBoundsRejected) {
  EXPECT_DEATH(Rect({0.0, 1.0}, {2.0}), "CHECK failed");
}

}  // namespace
}  // namespace tsq::rstar
