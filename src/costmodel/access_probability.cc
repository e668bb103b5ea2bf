#include "costmodel/access_probability.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/hot_path.h"
#include "geom/volumes.h"

namespace iq {

namespace {

/// E[(x - q)^2] and E[(x - q)^4] for x uniform on [lb, ub], expressed
/// through the shifted interval [a, b] = [lb - q, ub - q]:
/// E[t^2] = (a^2 + ab + b^2) / 3,
/// E[t^4] = (a^4 + a^3 b + a^2 b^2 + a b^3 + b^4) / 5.
void SquaredDeviationMoments(double a, double b, double* mean,
                             double* variance) {
  const double m2 = (a * a + a * b + b * b) / 3.0;
  const double m4 =
      (a * a * a * a + a * a * a * b + a * a * b * b + a * b * b * b +
       b * b * b * b) /
      5.0;
  *mean = m2;
  *variance = std::max(0.0, m4 - m2 * m2);
}

/// Standard normal CDF.
double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

DistanceMoments SquaredDistanceMoments(PointView q, const Mbr& box) {
  assert(q.size() == box.dims());
  DistanceMoments m;
  for (size_t i = 0; i < q.size(); ++i) {
    double mean, variance;
    SquaredDeviationMoments(box.lb(i) - q[i], box.ub(i) - q[i], &mean,
                            &variance);
    m.mean += mean;
    m.variance += variance;
  }
  m.stddev = std::sqrt(m.variance);
  m.ready = true;
  return m;
}

IQ_HOT_NOALLOC
double FractionFromMoments(const DistanceMoments& m, double r) {
  if (r <= 0) return 0.0;
  const double target = r * r;
  if (m.variance <= 1e-30) {
    return m.mean <= target ? 1.0 : 0.0;
  }
  const double z = (target - m.mean) / m.stddev;
  return std::clamp(NormalCdf(z), 0.0, 1.0);
}

double IntersectionFraction(PointView q, double r, const Mbr& box,
                            Metric metric) {
  assert(q.size() == box.dims());
  if (r <= 0) return 0.0;
  const size_t d = q.size();
  if (metric == Metric::kLMax) {
    // Exact for the maximum metric (paper eq. 5): per-dimension overlap
    // of the box with [q - r, q + r].
    double fraction = 1.0;
    for (size_t i = 0; i < d; ++i) {
      const double lo = std::max<double>(box.lb(i), q[i] - r);
      const double hi = std::min<double>(box.ub(i), q[i] + r);
      if (hi < lo) return 0.0;
      const double extent = box.Extent(i);
      if (extent > 0) fraction *= (hi - lo) / extent;
      // Degenerate side: contributes factor 1 when the slab overlaps.
    }
    return std::clamp(fraction, 0.0, 1.0);
  }
  // Euclidean metric: the exact fraction is the integral of the ball
  // over the box (paper eq. 4), which has no closed form. We estimate
  // P(sum_i (x_i - q_i)^2 <= r^2) for x uniform in the box by moment
  // matching the sum of the independent per-dimension squared
  // deviations with a normal distribution — accurate for the
  // dimensionalities the IQ-tree targets (CLT over d terms), and well
  // behaved in both the high-overlap and the disjoint regime, unlike
  // bounding-box surrogates.
  return FractionFromMoments(SquaredDistanceMoments(q, box), r);
}

IQ_HOT_NOALLOC
double RegionFraction(PointView q, double r, const PrunerRegion& region,
                      Metric metric) {
  if (metric != Metric::kL2 || region.moments == nullptr) {
    return IntersectionFraction(q, r, *region.box, metric);
  }
  if (!region.moments->ready) {
    *region.moments = SquaredDistanceMoments(q, *region.box);
  }
  return FractionFromMoments(*region.moments, r);
}

}  // namespace iq
