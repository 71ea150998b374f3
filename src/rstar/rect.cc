#include "rstar/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace tsq::rstar {

Rect::Rect(std::vector<double> low, std::vector<double> high)
    : low_(std::move(low)), high_(std::move(high)) {
  TSQ_CHECK_EQ(low_.size(), high_.size());
  for (std::size_t d = 0; d < low_.size(); ++d) {
    TSQ_DCHECK(low_[d] <= high_[d])
        << "invalid rect bounds in dim " << d << ": " << low_[d] << " > "
        << high_[d];
  }
}

Rect Rect::FromPoint(const Point& point) {
  return Rect(point, point);
}

Rect Rect::Empty(std::size_t dimensions) {
  Rect r;
  r.low_.assign(dimensions, std::numeric_limits<double>::infinity());
  r.high_.assign(dimensions, -std::numeric_limits<double>::infinity());
  return r;
}

bool Rect::empty() const {
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (low_[d] > high_[d]) return true;
  }
  return dimensions() == 0;
}

double Rect::Area() const {
  double area = 1.0;
  for (std::size_t d = 0; d < dimensions(); ++d) area *= Extent(d);
  return area;
}

double Rect::Margin() const {
  double margin = 0.0;
  for (std::size_t d = 0; d < dimensions(); ++d) margin += Extent(d);
  return margin;
}

double Rect::CenterSquaredDistance(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  double acc = 0.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    const double diff = Center(d) - other.Center(d);
    acc += diff * diff;
  }
  return acc;
}

bool Rect::Intersects(const Rect& other) const {
  return RectView(*this).Intersects(other);
}

bool RectView::Intersects(const RectView& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (low_[d] > other.high_[d] || other.low_[d] > high_[d]) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (other.low_[d] < low_[d] || other.high_[d] > high_[d]) return false;
  }
  return true;
}

bool Rect::ContainsPoint(const Point& point) const {
  TSQ_DCHECK(dimensions() == point.size());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (point[d] < low_[d] || point[d] > high_[d]) return false;
  }
  return true;
}

void Rect::Enlarge(const RectView& other) {
  TSQ_DCHECK(dimensions() == other.dimensions());
  for (std::size_t d = 0; d < dimensions(); ++d) {
    low_[d] = std::min(low_[d], other.low(d));
    high_[d] = std::max(high_[d], other.high(d));
  }
}

double Rect::Enlargement(const Rect& other) const {
  Rect grown = *this;
  grown.Enlarge(other);
  return grown.Area() - Area();
}

double Rect::OverlapArea(const Rect& other) const {
  TSQ_DCHECK(dimensions() == other.dimensions());
  double area = 1.0;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    const double lo = std::max(low_[d], other.low_[d]);
    const double hi = std::min(high_[d], other.high_[d]);
    if (lo > hi) return 0.0;
    area *= hi - lo;
  }
  return area;
}

Rect RectView::ToRect() const {
  return Rect(std::vector<double>(low_, low_ + dimensions_),
              std::vector<double>(high_, high_ + dimensions_));
}

std::string Rect::ToString() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (d > 0) os << "x";
    os << "(" << low_[d] << ".." << high_[d] << ")";
  }
  return os.str();
}

Rect BoundingRect(std::span<const Rect> rects) {
  TSQ_CHECK(!rects.empty());
  Rect out = rects.front();
  for (std::size_t i = 1; i < rects.size(); ++i) out.Enlarge(rects[i]);
  return out;
}

}  // namespace tsq::rstar
