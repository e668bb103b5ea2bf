#ifndef IQPERF_ORACLE_H_
#define IQPERF_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "geom/neighbor.h"
#include "geom/point.h"

namespace iqperf {

/// Brute-force answers for one query point.
struct Expected {
  /// The k nearest neighbors, ascending by distance.
  std::vector<iq::Neighbor> knn;
  /// Distance of the `radius_rank`-th nearest neighbor: the radius of the
  /// workload's range query for this point.
  double radius = 0;
  /// Every point within `radius`, ascending by (distance, id).
  std::vector<iq::Neighbor> range;
};

/// Exact distance from the query to point `id`; negative when `id` names
/// no point of the data set.
using TrueDistance = std::function<double(iq::PointId)>;

/// Brute-force answers for every row of `queries` over the fixed `data`,
/// computed with SeqScan (k-NN for the radius, then a range scan) on
/// `threads` threads.
std::vector<Expected> ScanOracle(const iq::Dataset& data,
                                 const iq::Dataset& queries, size_t k,
                                 size_t radius_rank, size_t threads);

/// Brute force over the points currently in an index that takes inserts
/// and removes: the benchmark mirrors every update here.
class LiveSet {
 public:
  /// Rows of `base` are live with ids 0..size-1.
  explicit LiveSet(const iq::Dataset& base);

  void Insert(iq::PointId id, iq::PointView p);
  void Remove(iq::PointId id);

  Expected Answer(iq::PointView q, size_t k, size_t radius_rank) const;
  double DistanceTo(iq::PointView q, iq::PointId id) const;

 private:
  size_t dims_;
  std::vector<float> coords_;
  std::vector<uint8_t> live_;
};

/// Empty when `actual` is a correct k-NN answer: the same number of
/// neighbors, bit-identical distances, and the same ids except among
/// ties at the k-th distance, where each returned id must be a distinct
/// point at exactly that distance. Otherwise a description of the
/// mismatch.
std::string CheckKnn(const Expected& expected,
                     const std::vector<iq::Neighbor>& actual,
                     const TrueDistance& distance_to);

/// Empty when `actual` holds exactly the expected (id, distance) pairs.
std::string CheckRange(const Expected& expected,
                       std::vector<iq::Neighbor> actual);

}  // namespace iqperf

#endif  // IQPERF_ORACLE_H_
