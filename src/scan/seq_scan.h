#ifndef IQ_SCAN_SEQ_SCAN_H_
#define IQ_SCAN_SEQ_SCAN_H_

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

/// The sequential-scan reference technique: the exact vectors in one
/// flat file, every query reads the whole file once (sequentially) and
/// evaluates every point. The benchmark floor (and, as the paper notes,
/// the ceiling for naive index structures in high dimensions).
class SeqScan {
 public:
  struct Options {
    Metric metric = Metric::kL2;
  };

  static Result<std::unique_ptr<SeqScan>> Build(const Dataset& data,
                                                Storage& storage,
                                                const std::string& name,
                                                DiskModel& disk,
                                                const Options& options);

  static Result<std::unique_ptr<SeqScan>> Open(Storage& storage,
                                               const std::string& name,
                                               DiskModel& disk);

  Result<Neighbor> NearestNeighbor(PointView q) const;
  Result<std::vector<Neighbor>> KNearestNeighbors(PointView q,
                                                  size_t k) const;
  Result<std::vector<Neighbor>> RangeSearch(PointView q, double radius) const;

  /// Appends a point; its id is its position.
  Status Insert(PointView p);
  Status Flush();

  size_t dims() const { return dims_; }
  uint64_t size() const { return count_; }
  Metric metric() const { return options_.metric; }

 private:
  SeqScan() = default;

  /// Charges one query's scan of the whole file: the query's only
  /// access, so it runs on a fresh head of its own.
  void ChargeFullScan() const;

  PointView Vector(size_t index) const {
    return PointView(vectors_.data() + index * dims_, dims_);
  }

  Options options_;
  size_t dims_ = 0;
  uint64_t count_ = 0;
  std::vector<float> vectors_;
  std::shared_ptr<File> file_;
  DiskModel* disk_ = nullptr;
  uint32_t file_id_ = 0;
};

}  // namespace iq

#endif  // IQ_SCAN_SEQ_SCAN_H_
