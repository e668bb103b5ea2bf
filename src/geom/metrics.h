#ifndef IQ_GEOM_METRICS_H_
#define IQ_GEOM_METRICS_H_

#include <cstddef>

#include "common/status.h"
#include "geom/mbr.h"
#include "geom/point.h"

namespace iq {

/// Distance metric used throughout the library. The paper derives its
/// cost model for both the Euclidean (L2) and maximum (L∞) metrics.
enum class Metric {
  kL2,
  kLMax,
};

/// Distance between two points (not squared — the cost model works in
/// radius units).
double Distance(PointView a, PointView b, Metric metric);

/// MINDIST: smallest possible distance between `q` and any point inside
/// `box`; 0 if q is inside. Lower bound used for priority-queue pruning.
double MinDist(PointView q, const Mbr& box, Metric metric);

/// MAXDIST: largest possible distance between `q` and any point inside
/// `box`. Upper bound used by the VA-file filter step.
double MaxDist(PointView q, const Mbr& box, Metric metric);

/// Validates the point of a similarity query: InvalidArgument when it
/// does not have `dims` coordinates or a coordinate is NaN or ±inf (no
/// distance to such a point ranks anything).
Status CheckQueryPoint(PointView q, size_t dims);

/// Validates a range-query radius: InvalidArgument when it is negative
/// or NaN. +inf is valid and selects every point.
Status CheckQueryRadius(double radius);

/// Volume of the intersection of `box` with the metric ball of radius
/// `r` around `q` (the paper's V_int, eq. 4/5). Exact for L∞; for L2 the
/// paper's approximation is used: the intersection with the ball's
/// bounding box, scaled by the ball-to-cube volume ratio.
double IntersectionVolume(PointView q, double r, const Mbr& box,
                          Metric metric);

}  // namespace iq

#endif  // IQ_GEOM_METRICS_H_
