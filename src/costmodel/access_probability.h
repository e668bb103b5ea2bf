#ifndef IQ_COSTMODEL_ACCESS_PROBABILITY_H_
#define IQ_COSTMODEL_ACCESS_PROBABILITY_H_

#include <cmath>
#include <concepts>
#include <cstdint>

#include "common/hot_path.h"
#include "geom/mbr.h"
#include "geom/metrics.h"
#include "geom/point.h"

namespace iq {

/// The radius-independent part of the L2 intersection fraction for one
/// (query, box) pair: mean and variance of sum_i (x_i - q_i)^2 for x
/// uniform in the box, and the variance's square root.
struct DistanceMoments {
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  /// False until filled (see PrunerRegion::moments).
  bool ready = false;
};

/// A region that can prune a candidate page: its bounding box and how
/// many data points it holds. Point approximations are boxes with
/// count = 1; already-known exact points are degenerate boxes.
struct PrunerRegion {
  const Mbr* box = nullptr;
  uint32_t count = 0;
  /// Optional cache of SquaredDistanceMoments(q, *box), owned by the
  /// caller and filled on the region's first L2 evaluation: a searcher
  /// that keeps one slot per region for one query point computes each
  /// region's moments once, whatever the radii. Valid for one query
  /// point only, and filled without synchronization, so a slot belongs
  /// to one query. Null computes the moments on every evaluation.
  DistanceMoments* moments = nullptr;
};

/// V_int(region, ball)/V(region) for the ball of radius `r` around `q`
/// (IntersectionFraction), reading and filling region.moments for L2.
double RegionFraction(PointView q, double r, const PrunerRegion& region,
                      Metric metric);

/// Access probability of a page during NN search (paper §2.2, eqns 2-3).
///
/// The page with MINDIST `target_mindist` from `q` is accessed iff no
/// point of any higher-priority region lies inside the ball of radius
/// `target_mindist` around `q` (the "b_i-sphere"). Under uniformity
/// within each region:
///
///   P_access = prod_regions (1 - V_int(region, ball)/V(region))^count
///
/// V_int is exact for the maximum metric and the paper's bounding-box
/// approximation for L2 (eqns 4-5). Degenerate region sides are handled
/// by taking the ratio limit per dimension. The product is cut off once
/// it drops below `floor` and 0 is returned: every factor is at most 1,
/// so a product below `floor` can only end below it.
///
/// The regions come from `next_region`: each call stores the next
/// higher-priority region in its argument and returns true, or returns
/// false when there are no more. The product reads them in that order
/// and stops asking once its value is decided.
template <std::invocable<PrunerRegion*> NextRegion>
IQ_HOT_NOALLOC
double PageAccessProbability(PointView q, double target_mindist,
                             NextRegion next_region, Metric metric,
                             double floor = 1e-6) {
  double prob = 1.0;
  PrunerRegion region;
  while (next_region(&region)) {
    const double fraction = RegionFraction(q, target_mindist, region, metric);
    if (fraction <= 0.0) continue;
    if (fraction >= 1.0) return 0.0;
    // Eq. 3: probability that none of the region's points falls into
    // the intersection.
    prob *= std::pow(1.0 - fraction, static_cast<double>(region.count));
    if (prob < floor) return 0.0;
  }
  return prob;
}

/// Ratio V_int(box, ball)/V(box) in [0, 1] with degenerate-side limits:
/// degenerate dimensions contribute 1 if the slab intersects the ball's
/// extent in that dimension and 0 otherwise. For L2 this is
/// FractionFromMoments(SquaredDistanceMoments(q, box), r).
double IntersectionFraction(PointView q, double r, const Mbr& box,
                            Metric metric);

/// Moments of the squared L2 distance from `q` to a point uniform in
/// `box`, summed over the dimensions in order (independent of r).
DistanceMoments SquaredDistanceMoments(PointView q, const Mbr& box);

/// The L2 intersection fraction for radius `r` from the moments of
/// SquaredDistanceMoments: P(sum <= r^2) under a normal approximation.
double FractionFromMoments(const DistanceMoments& m, double r);

}  // namespace iq

#endif  // IQ_COSTMODEL_ACCESS_PROBABILITY_H_
