#include "geom/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geom/volumes.h"

namespace iq {

double Distance(PointView a, PointView b, Metric metric) {
  assert(a.size() == b.size());
  if (metric == Metric::kL2) {
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      const double diff = static_cast<double>(a[i]) - b[i];
      s += diff * diff;
    }
    return std::sqrt(s);
  }
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

double MinDist(PointView q, const Mbr& box, Metric metric) {
  assert(q.size() == box.dims());
  if (metric == Metric::kL2) {
    double s = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      double diff = 0.0;
      if (q[i] < box.lb(i)) {
        diff = box.lb(i) - static_cast<double>(q[i]);
      } else if (q[i] > box.ub(i)) {
        diff = static_cast<double>(q[i]) - box.ub(i);
      }
      s += diff * diff;
    }
    return std::sqrt(s);
  }
  double m = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    double diff = 0.0;
    if (q[i] < box.lb(i)) {
      diff = box.lb(i) - static_cast<double>(q[i]);
    } else if (q[i] > box.ub(i)) {
      diff = static_cast<double>(q[i]) - box.ub(i);
    }
    m = std::max(m, diff);
  }
  return m;
}

Status CheckQueryPoint(PointView q, size_t dims) {
  if (q.size() != dims) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  for (float x : q) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("query coordinate is not finite");
    }
  }
  return Status::OK();
}

Status CheckQueryRadius(double radius) {
  if (std::isnan(radius)) return Status::InvalidArgument("radius is NaN");
  if (radius < 0) return Status::InvalidArgument("negative radius");
  return Status::OK();
}

double MaxDist(PointView q, const Mbr& box, Metric metric) {
  assert(q.size() == box.dims());
  if (metric == Metric::kL2) {
    double s = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      const double to_lb = std::abs(static_cast<double>(q[i]) - box.lb(i));
      const double to_ub = std::abs(static_cast<double>(q[i]) - box.ub(i));
      const double diff = std::max(to_lb, to_ub);
      s += diff * diff;
    }
    return std::sqrt(s);
  }
  double m = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    const double to_lb = std::abs(static_cast<double>(q[i]) - box.lb(i));
    const double to_ub = std::abs(static_cast<double>(q[i]) - box.ub(i));
    m = std::max(m, std::max(to_lb, to_ub));
  }
  return m;
}

double IntersectionVolume(PointView q, double r, const Mbr& box,
                          Metric metric) {
  assert(q.size() == box.dims());
  if (r <= 0) return 0.0;
  // Intersection of the box with the L∞ ball [q - r, q + r] (paper
  // eq. 5). For L2 this is the paper's suggested approximation, scaled
  // by the ball-to-bounding-cube volume ratio so the estimate does not
  // systematically overstate the Euclidean ball.
  double v = 1.0;
  const size_t d = q.size();
  for (size_t i = 0; i < d; ++i) {
    const double lo = std::max<double>(box.lb(i), q[i] - r);
    const double hi = std::min<double>(box.ub(i), q[i] + r);
    if (hi <= lo) return 0.0;
    v *= hi - lo;
  }
  if (metric == Metric::kL2) {
    const double ratio = SphereVolume(d, r) / CubeVolume(d, r);
    v *= ratio;
  }
  return v;
}

}  // namespace iq
