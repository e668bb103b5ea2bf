#include "scan/seq_scan.h"

#include <algorithm>
#include <limits>

#include "common/hot_path.h"
#include "common/math_utils.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "quant/filter_kernel.h"

namespace iq {

namespace {

// Baselines share the iq_* metric namespace so dashboards can compare
// query volume across methods.
obs::Counter* ScanQueryCounter() {
  static obs::Counter* counter =
      obs::MetricRegistry::Global().GetCounter(obs::metric::kScanQueriesTotal);
  return counter;
}

constexpr uint32_t kScanMagic = 0x53434e31;  // "SCN1"

struct ScanHeader {
  uint32_t magic;
  uint32_t dims;
  uint64_t count;
  uint32_t metric;
  uint32_t reserved;
};
static_assert(sizeof(ScanHeader) == 24);

std::string ScanName(const std::string& name) { return name + ".scn"; }

/// Points per batch-distance call (keeps the output buffer small while
/// amortizing the kernel dispatch).
constexpr size_t kScanChunk = 1024;

/// Max-heap order on distance for the bounded k-NN result set.
bool CloserNeighbor(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance;
}

}  // namespace

void SeqScan::ChargeFullScan() const {
  const uint64_t bytes =
      sizeof(ScanHeader) + count_ * dims_ * sizeof(float);
  DiskHead head;
  disk_->ChargeRead(head, file_id_, 0,
                    CeilDiv(std::max<uint64_t>(bytes, 1),
                            disk_->params().block_size));
}

Result<std::unique_ptr<SeqScan>> SeqScan::Build(const Dataset& data,
                                                Storage& storage,
                                                const std::string& name,
                                                DiskModel& disk,
                                                const Options& options) {
  if (data.dims() == 0) {
    return Status::InvalidArgument("cannot build over a 0-dimensional set");
  }
  auto scan = std::unique_ptr<SeqScan>(new SeqScan());
  scan->options_ = options;
  scan->dims_ = data.dims();
  scan->count_ = data.size();
  scan->disk_ = &disk;
  scan->file_id_ = disk.RegisterFile();
  scan->vectors_.assign(data.data(),
                        data.data() + data.size() * data.dims());
  IQ_ASSIGN_OR_RETURN(scan->file_, storage.Create(ScanName(name)));
  IQ_RETURN_NOT_OK(scan->Flush());
  return scan;
}

Result<std::unique_ptr<SeqScan>> SeqScan::Open(Storage& storage,
                                               const std::string& name,
                                               DiskModel& disk) {
  auto scan = std::unique_ptr<SeqScan>(new SeqScan());
  scan->disk_ = &disk;
  scan->file_id_ = disk.RegisterFile();
  IQ_ASSIGN_OR_RETURN(scan->file_, storage.Open(ScanName(name)));
  File& file = *scan->file_;
  if (file.Size() < sizeof(ScanHeader)) {
    return Status::Corruption("scan file too small");
  }
  ScanHeader header;
  IQ_RETURN_NOT_OK(file.Read(0, sizeof(header), &header));
  if (header.magic != kScanMagic) {
    return Status::Corruption("bad scan file magic");
  }
  if (header.dims == 0) {
    return Status::Corruption("scan file with zero dims");
  }
  scan->dims_ = header.dims;
  scan->count_ = header.count;
  scan->options_.metric = static_cast<Metric>(header.metric);
  const uint64_t bytes = header.count * header.dims * sizeof(float);
  if (file.Size() < sizeof(header) + bytes) {
    return Status::Corruption("truncated scan file");
  }
  scan->vectors_.resize(header.count * header.dims);
  if (bytes > 0) {
    IQ_RETURN_NOT_OK(file.Read(sizeof(header), bytes,
                               scan->vectors_.data()));
  }
  return scan;
}

Status SeqScan::Flush() {
  ScanHeader header{kScanMagic, static_cast<uint32_t>(dims_), count_,
                    static_cast<uint32_t>(options_.metric), 0};
  IQ_RETURN_NOT_OK(file_->Resize(0));
  IQ_RETURN_NOT_OK(file_->Write(0, sizeof(header), &header));
  if (!vectors_.empty()) {
    IQ_RETURN_NOT_OK(file_->Write(sizeof(header),
                                  vectors_.size() * sizeof(float),
                                  vectors_.data()));
  }
  return Status::OK();
}

Status SeqScan::Insert(PointView p) {
  if (p.size() != dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  vectors_.insert(vectors_.end(), p.begin(), p.end());
  count_ += 1;
  return Status::OK();
}

Result<std::vector<Neighbor>> SeqScan::KNearestNeighbors(PointView q,
                                                         size_t k) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  ScanQueryCounter()->Increment();
  std::vector<Neighbor> best;
  if (k == 0 || count_ == 0) return best;
  ChargeFullScan();
  // Distances in batches through the filter kernel (bit-identical to
  // Distance() per point); best is a bounded max-heap on distance, so
  // replacing the worst of k results is O(log k).
  std::vector<double> dist(std::min(kScanChunk, count_));
  double worst = std::numeric_limits<double>::infinity();
  IQ_HOT_NOALLOC_BEGIN;
  for (size_t base = 0; base < count_; base += kScanChunk) {
    const size_t n = std::min(kScanChunk, count_ - base);
    FilterKernel::BatchDistances(q, options_.metric,
                                 vectors_.data() + base * dims_, n,
                                 dist.data());
    for (size_t j = 0; j < n; ++j) {
      const PointId id = static_cast<PointId>(base + j);
      if (best.size() < k) {
        // iqlint: allow(hotpath-alloc): the result heap is bounded by
        // k; growth stops after the first k appends.
        best.push_back(Neighbor{id, dist[j]});
        std::push_heap(best.begin(), best.end(), CloserNeighbor);
        if (best.size() == k) worst = best.front().distance;
        continue;
      }
      if (dist[j] >= worst) continue;
      std::pop_heap(best.begin(), best.end(), CloserNeighbor);
      best.back() = Neighbor{id, dist[j]};
      std::push_heap(best.begin(), best.end(), CloserNeighbor);
      worst = best.front().distance;
    }
  }
  IQ_HOT_NOALLOC_END;
  std::sort(best.begin(), best.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  return best;
}

Result<Neighbor> SeqScan::NearestNeighbor(PointView q) const {
  IQ_ASSIGN_OR_RETURN(std::vector<Neighbor> out, KNearestNeighbors(q, 1));
  if (out.empty()) return Status::NotFound("empty index");
  return out.front();
}

Result<std::vector<Neighbor>> SeqScan::RangeSearch(PointView q,
                                                   double radius) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (radius < 0) return Status::InvalidArgument("negative radius");
  ScanQueryCounter()->Increment();
  ChargeFullScan();
  std::vector<Neighbor> out;
  std::vector<double> dist(std::min(kScanChunk, count_));
  IQ_HOT_NOALLOC_BEGIN;
  for (size_t base = 0; base < count_; base += kScanChunk) {
    const size_t n = std::min(kScanChunk, count_ - base);
    FilterKernel::BatchDistances(q, options_.metric,
                                 vectors_.data() + base * dims_, n,
                                 dist.data());
    for (size_t j = 0; j < n; ++j) {
      if (dist[j] <= radius) {
        // iqlint: allow(hotpath-alloc): append to the query's result
        // vector — output, not scratch.
        out.push_back(Neighbor{static_cast<PointId>(base + j), dist[j]});
      }
    }
  }
  IQ_HOT_NOALLOC_END;
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  return out;
}

}  // namespace iq
