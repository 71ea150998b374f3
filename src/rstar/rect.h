#ifndef TSQ_RSTAR_RECT_H_
#define TSQ_RSTAR_RECT_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tsq::rstar {

/// A point in d-dimensional space.
using Point = std::vector<double>;

class RectView;

/// An axis-aligned d-dimensional rectangle [low_i, high_i] per dimension.
///
/// Used for R*-tree node/entry bounding boxes, for transformation MBRs and
/// for query regions. Degenerate rectangles (low == high) represent points.
class Rect {
 public:
  Rect() = default;

  /// Constructs from explicit bounds. Requires equal sizes and
  /// low[i] <= high[i] for all i.
  Rect(std::vector<double> low, std::vector<double> high);

  /// A degenerate rectangle covering exactly `point`.
  static Rect FromPoint(const Point& point);

  /// The "empty" rectangle of dimension d (low = +inf, high = -inf), the
  /// identity for Enlarge.
  static Rect Empty(std::size_t dimensions);

  std::size_t dimensions() const { return low_.size(); }
  bool empty() const;

  double low(std::size_t dim) const { return low_[dim]; }
  double high(std::size_t dim) const { return high_[dim]; }
  std::span<const double> lows() const { return low_; }
  std::span<const double> highs() const { return high_; }

  void set_low(std::size_t dim, double v) { low_[dim] = v; }
  void set_high(std::size_t dim, double v) { high_[dim] = v; }

  /// Side length along `dim` (0 for points, never negative for valid rects).
  double Extent(std::size_t dim) const { return high_[dim] - low_[dim]; }

  /// Product of extents. 0 for degenerate rectangles.
  double Area() const;

  /// Sum of extents (the R*-split "margin" objective).
  double Margin() const;

  /// Center coordinate along `dim`.
  double Center(std::size_t dim) const { return 0.5 * (low_[dim] + high_[dim]); }

  /// Squared Euclidean distance between the centers of two rects.
  double CenterSquaredDistance(const Rect& other) const;

  /// Closed-interval intersection test.
  bool Intersects(const Rect& other) const;

  /// True when `other` lies fully inside this rect.
  bool Contains(const Rect& other) const;
  bool ContainsPoint(const Point& point) const;

  /// Grows this rect to cover `other`.
  void Enlarge(const RectView& other);

  /// Area increase if this rect were enlarged to cover `other`.
  double Enlargement(const Rect& other) const;

  /// Area of the intersection with `other` (0 when disjoint).
  double OverlapArea(const Rect& other) const;

  /// "(lo..hi)x(lo..hi)" rendering for diagnostics.
  std::string ToString() const;

  bool operator==(const Rect&) const = default;

 private:
  std::vector<double> low_;
  std::vector<double> high_;
};

/// A non-owning view of a rectangle whose d lows and d highs live in
/// someone else's storage. R*-tree traversals test node entries through it
/// straight from a decoded node's flat coordinates, without materializing a
/// Rect per entry; an owning Rect converts to it implicitly, so one
/// predicate serves both. The storage must outlive the view.
class RectView {
 public:
  RectView(const double* low, const double* high, std::size_t dimensions)
      : low_(low), high_(high), dimensions_(dimensions) {}
  /// A rect stored flat as its d lows followed by its d highs.
  RectView(const double* coords, std::size_t dimensions)
      : RectView(coords, coords + dimensions, dimensions) {}
  RectView(const Rect& rect)  // NOLINT(runtime/explicit): a view of `rect`
      : RectView(rect.lows().data(), rect.highs().data(),
                 rect.dimensions()) {}

  std::size_t dimensions() const { return dimensions_; }
  double low(std::size_t dim) const { return low_[dim]; }
  double high(std::size_t dim) const { return high_[dim]; }

  /// Same semantics as Rect::Intersects.
  bool Intersects(const RectView& other) const;

  /// An owning copy.
  Rect ToRect() const;

 private:
  const double* low_;
  const double* high_;
  std::size_t dimensions_;
};

/// MBR of a set of rectangles. Requires a non-empty span.
Rect BoundingRect(std::span<const Rect> rects);

}  // namespace tsq::rstar

#endif  // TSQ_RSTAR_RECT_H_
