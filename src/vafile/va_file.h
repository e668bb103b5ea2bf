#ifndef IQ_VAFILE_VA_FILE_H_
#define IQ_VAFILE_VA_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "geom/metrics.h"
#include "geom/neighbor.h"
#include "io/disk_model.h"
#include "io/storage.h"

namespace iq {

/// The VA-file baseline (Weber, Schek, Blott, VLDB '98; the paper's
/// [20]): a flat, *globally* quantized approximation file plus the exact
/// vector file, both in identical point order.
///
/// A query scans the whole approximation file sequentially, computes a
/// lower and an upper distance bound per point from its grid cell, and
/// looks up exact vectors (random accesses) only for points whose lower
/// bound does not already exclude them. In contrast to the IQ-tree the
/// number of bits per dimension is one global constant that must be
/// hand-tuned per data set (the paper tunes 2-8 bits and reports the
/// best).
class VaFile {
 public:
  struct Options {
    Metric metric = Metric::kL2;
    /// Global bits per dimension of the approximation grid.
    unsigned bits_per_dim = 4;
  };

  static Result<std::unique_ptr<VaFile>> Build(const Dataset& data,
                                               Storage& storage,
                                               const std::string& name,
                                               DiskModel& disk,
                                               const Options& options);

  static Result<std::unique_ptr<VaFile>> Open(Storage& storage,
                                              const std::string& name,
                                              DiskModel& disk);

  Result<Neighbor> NearestNeighbor(PointView q) const;
  Result<std::vector<Neighbor>> KNearestNeighbors(PointView q,
                                                  size_t k) const;
  Result<std::vector<Neighbor>> RangeSearch(PointView q, double radius) const;

  /// All point ids inside the window (inclusive bounds): one
  /// approximation scan, exact lookups only where the cell is not
  /// decisive.
  Result<std::vector<PointId>> WindowQuery(const Mbr& window) const;

  /// Appends a point; its id is its position. InvalidArgument if the
  /// point lies outside the fixed grid domain.
  Status Insert(PointView p);

  /// Persists header changes after inserts.
  Status Flush();

  size_t dims() const { return dims_; }
  uint64_t size() const { return count_; }
  Metric metric() const { return options_.metric; }
  unsigned bits_per_dim() const { return options_.bits_per_dim; }
  const Mbr& domain() const { return domain_; }

  /// Fraction of points whose exact vector the last query visited
  /// (diagnostic for the bits-per-dim ablation). Relaxed atomic: under
  /// a parallel runner concurrent queries race on "last", but every
  /// read observes some complete query's value rather than a torn one.
  double last_visit_fraction() const {
    return last_visit_fraction_.load(std::memory_order_relaxed);
  }

 private:
  VaFile() = default;

  /// Lower/upper distance bound of point `index` to `q` from its cells.
  void Bounds(PointView q, size_t index, double* lower, double* upper) const;

  /// Charges the sequential scan of the approximation file to the
  /// query's `head`.
  void ChargeApproximationScan(DiskHead& head) const;

  /// Charges the random lookup of one exact vector to the query's
  /// `head`.
  void ChargeVectorLookup(DiskHead& head, size_t index) const;

  PointView Vector(size_t index) const {
    return PointView(vectors_.data() + index * dims_, dims_);
  }

  uint32_t Cell(size_t index, size_t dim) const;

  Status AppendToFiles(PointView p);

  Options options_;
  size_t dims_ = 0;
  uint64_t count_ = 0;
  Mbr domain_;
  std::vector<float> cell_width_;
  /// In-memory caches of both files (all I/O costs are charged through
  /// the disk model at query time).
  std::vector<uint8_t> approx_;
  std::vector<float> vectors_;
  std::shared_ptr<File> approx_file_;
  std::shared_ptr<File> vector_file_;
  DiskModel* disk_ = nullptr;
  uint32_t approx_file_id_ = 0;
  uint32_t vector_file_id_ = 0;
  mutable std::atomic<double> last_visit_fraction_{0.0};
};

}  // namespace iq

#endif  // IQ_VAFILE_VA_FILE_H_
