#ifndef IQ_DATA_DATASET_H_
#define IQ_DATA_DATASET_H_

#include <cstddef>
#include <vector>

#include "geom/mbr.h"
#include "geom/point.h"

namespace iq {

/// Owning, row-major collection of d-dimensional float points. The unit
/// every index in this library is built over.
class Dataset {
 public:
  Dataset() = default;
  Dataset(size_t dims, std::vector<float> values);

  /// An empty dataset of the given dimensionality.
  explicit Dataset(size_t dims) : dims_(dims) {}

  size_t dims() const { return dims_; }
  size_t size() const { return dims_ == 0 ? 0 : values_.size() / dims_; }
  bool empty() const { return values_.empty(); }

  PointView operator[](size_t row) const {
    return PointView(values_.data() + row * dims_, dims_);
  }

  const float* row(size_t row) const { return values_.data() + row * dims_; }
  const float* data() const { return values_.data(); }

  void Append(PointView p);
  void Reserve(size_t rows) { values_.reserve(rows * dims_); }

  /// Tight bounding box of all points (Empty MBR if no points).
  Mbr Bounds() const;

  /// Splits off the last `count` rows into a separate dataset — used to
  /// carve a query workload out of a generated set (the paper separates
  /// query points from the database but draws them from the same
  /// distribution).
  Dataset TakeTail(size_t count);

  /// Affinely rescales every dimension into [0, 1] (degenerate
  /// dimensions map to 0.5) and returns the original bounds, so queries
  /// can be mapped into the normalized space with MapIntoUnitCube.
  /// Real-world data must be normalized before indexing: the canonical
  /// data space of this library is the unit cube.
  Mbr NormalizeToUnitCube();

 private:
  size_t dims_ = 0;
  std::vector<float> values_;
};

/// Maps a point of the original space into the normalized space of a
/// dataset rescaled with Dataset::NormalizeToUnitCube (clamping is the
/// caller's choice — out-of-bounds inputs map outside [0, 1]).
Point MapIntoUnitCube(PointView p, const Mbr& original_bounds);

}  // namespace iq

#endif  // IQ_DATA_DATASET_H_
