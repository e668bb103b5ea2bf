#include "vafile/va_file.h"

#include <atomic>
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>

#include "common/cast.h"
#include "common/hot_path.h"
#include "common/math_utils.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "quant/bit_stream.h"
#include "quant/filter_kernel.h"

namespace iq {

namespace {

// Baseline query volume and phase-2 refinement counts, in the shared
// iq_* metric namespace for cross-method comparison.
struct VaMetrics {
  obs::Counter* queries;
  obs::Counter* refinements;

  static const VaMetrics& Get() {
    auto& registry = obs::MetricRegistry::Global();
    static const VaMetrics m{
        registry.GetCounter(obs::metric::kVafileQueriesTotal),
        registry.GetCounter(obs::metric::kVafileRefinementsTotal)};
    return m;
  }
};

constexpr uint32_t kVaMagic = 0x56414631;  // "VAF1"

struct VaHeader {
  uint32_t magic;
  uint32_t dims;
  uint64_t count;
  uint32_t bits;
  uint32_t metric;
};
static_assert(sizeof(VaHeader) == 24);

std::string ApproxName(const std::string& name) { return name + ".vaa"; }
std::string VectorName(const std::string& name) { return name + ".vav"; }

/// Points per phase-1 batch: large enough to amortize the kernel call,
/// small enough that the decoded-cell scratch stays cache-resident.
constexpr size_t kScanChunk = 1024;

/// Max-heap order on distance for the bounded phase-2 result set.
bool CloserNeighbor(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance;
}

}  // namespace

uint32_t VaFile::Cell(size_t index, size_t dim) const {
  const unsigned bits = options_.bits_per_dim;
  BitReader reader(approx_.data(),
                   (index * dims_ + dim) * static_cast<size_t>(bits));
  return reader.Get(bits);
}

void VaFile::Bounds(PointView q, size_t index, double* lower,
                    double* upper) const {
  const unsigned bits = options_.bits_per_dim;
  const uint32_t cells = uint32_t{1} << bits;
  BitReader reader(approx_.data(),
                   index * dims_ * static_cast<size_t>(bits));
  if (options_.metric == Metric::kL2) {
    double lo_sq = 0.0, hi_sq = 0.0;
    for (size_t i = 0; i < dims_; ++i) {
      const uint32_t c = reader.Get(bits);
      const double cell_lb = domain_.lb(i) + cell_width_[i] * c;
      const double cell_ub =
          c + 1 == cells ? domain_.ub(i)
                         : domain_.lb(i) + cell_width_[i] * (c + 1);
      double lo = 0.0;
      if (q[i] < cell_lb) {
        lo = cell_lb - q[i];
      } else if (q[i] > cell_ub) {
        lo = q[i] - cell_ub;
      }
      const double hi =
          std::max(std::abs(q[i] - cell_lb), std::abs(q[i] - cell_ub));
      lo_sq += lo * lo;
      hi_sq += hi * hi;
    }
    *lower = std::sqrt(lo_sq);
    *upper = std::sqrt(hi_sq);
    return;
  }
  double lo_max = 0.0, hi_max = 0.0;
  for (size_t i = 0; i < dims_; ++i) {
    const uint32_t c = reader.Get(bits);
    const double cell_lb = domain_.lb(i) + cell_width_[i] * c;
    const double cell_ub =
        c + 1 == cells ? domain_.ub(i)
                       : domain_.lb(i) + cell_width_[i] * (c + 1);
    double lo = 0.0;
    if (q[i] < cell_lb) {
      lo = cell_lb - q[i];
    } else if (q[i] > cell_ub) {
      lo = q[i] - cell_ub;
    }
    const double hi =
        std::max(std::abs(q[i] - cell_lb), std::abs(q[i] - cell_ub));
    lo_max = std::max(lo_max, lo);
    hi_max = std::max(hi_max, hi);
  }
  *lower = lo_max;
  *upper = hi_max;
}

void VaFile::ChargeApproximationScan(DiskHead& head) const {
  const uint64_t bytes = sizeof(VaHeader) + approx_.size();
  disk_->ChargeRead(head, approx_file_id_, 0,
                    CeilDiv(std::max<uint64_t>(bytes, 1),
                            disk_->params().block_size));
}

void VaFile::ChargeVectorLookup(DiskHead& head, size_t index) const {
  disk_->ChargeReadBytes(head, vector_file_id_,
                         index * dims_ * sizeof(float),
                         dims_ * sizeof(float));
}

Result<std::unique_ptr<VaFile>> VaFile::Build(const Dataset& data,
                                              Storage& storage,
                                              const std::string& name,
                                              DiskModel& disk,
                                              const Options& options) {
  if (options.bits_per_dim < 1 || options.bits_per_dim > 16) {
    return Status::InvalidArgument("bits_per_dim must be in [1, 16]");
  }
  if (data.dims() == 0) {
    return Status::InvalidArgument("cannot build over a 0-dimensional set");
  }
  auto va = std::unique_ptr<VaFile>(new VaFile());
  va->options_ = options;
  va->dims_ = data.dims();
  va->count_ = 0;
  va->disk_ = &disk;
  va->approx_file_id_ = disk.RegisterFile();
  va->vector_file_id_ = disk.RegisterFile();
  // Grid domain: the unit cube extended to cover the data (the VA-file's
  // grid is global and fixed at build time).
  Mbr domain = Mbr::UnitCube(data.dims());
  if (data.size() > 0) domain.Extend(data.Bounds());
  va->domain_ = std::move(domain);
  va->cell_width_.resize(va->dims_);
  const uint32_t cells = uint32_t{1} << options.bits_per_dim;
  for (size_t i = 0; i < va->dims_; ++i) {
    va->cell_width_[i] = va->domain_.Extent(i) / static_cast<float>(cells);
  }
  IQ_ASSIGN_OR_RETURN(va->approx_file_, storage.Create(ApproxName(name)));
  IQ_ASSIGN_OR_RETURN(va->vector_file_, storage.Create(VectorName(name)));
  for (size_t r = 0; r < data.size(); ++r) {
    IQ_RETURN_NOT_OK(va->AppendToFiles(data[r]));
  }
  return va;
}

Status VaFile::AppendToFiles(PointView p) {
  if (!domain_.Contains(p)) {
    return Status::InvalidArgument("point outside the VA-file grid domain");
  }
  const unsigned bits = options_.bits_per_dim;
  const uint32_t cells = uint32_t{1} << bits;
  const size_t first_bit = count_ * dims_ * static_cast<size_t>(bits);
  const size_t last_bit = first_bit + dims_ * static_cast<size_t>(bits);
  approx_.resize(BytesForBits(last_bit), 0);
  BitWriter writer(approx_.data(), first_bit);
  for (size_t i = 0; i < dims_; ++i) {
    uint32_t c = 0;
    if (cell_width_[i] > 0) {
      const float rel = (p[i] - domain_.lb(i)) / cell_width_[i];
      // ClampedCast (common/cast.h): casting a float at or above 2^32
      // to uint32_t is UB (same fix as GridQuantizer::CellIndex).
      c = ClampedCast<uint32_t>(rel, 0, cells - 1);
      // Float-safety nudges (same invariant as the IQ-tree quantizer).
      while (c > 0 && p[i] < domain_.lb(i) + cell_width_[i] * c) --c;
      while (c + 1 < cells &&
             p[i] > domain_.lb(i) + cell_width_[i] * (c + 1)) {
        ++c;
      }
    }
    writer.Put(c, bits);
  }
  writer.Flush();
  vectors_.insert(vectors_.end(), p.begin(), p.end());
  count_ += 1;
  return Status::OK();
}

Status VaFile::Flush() {
  VaHeader header{kVaMagic, static_cast<uint32_t>(dims_), count_,
                  options_.bits_per_dim,
                  static_cast<uint32_t>(options_.metric)};
  IQ_RETURN_NOT_OK(approx_file_->Resize(0));
  IQ_RETURN_NOT_OK(approx_file_->Write(0, sizeof(header), &header));
  IQ_RETURN_NOT_OK(approx_file_->Write(
      sizeof(header), sizeof(float) * dims_, domain_.lower().data()));
  IQ_RETURN_NOT_OK(approx_file_->Write(
      sizeof(header) + sizeof(float) * dims_, sizeof(float) * dims_,
      domain_.upper().data()));
  if (!approx_.empty()) {
    IQ_RETURN_NOT_OK(approx_file_->Write(
        sizeof(header) + 2 * sizeof(float) * dims_, approx_.size(),
        approx_.data()));
  }
  IQ_RETURN_NOT_OK(vector_file_->Resize(0));
  if (!vectors_.empty()) {
    IQ_RETURN_NOT_OK(vector_file_->Write(0, vectors_.size() * sizeof(float),
                                         vectors_.data()));
  }
  return Status::OK();
}

Result<std::unique_ptr<VaFile>> VaFile::Open(Storage& storage,
                                             const std::string& name,
                                             DiskModel& disk) {
  auto va = std::unique_ptr<VaFile>(new VaFile());
  va->disk_ = &disk;
  va->approx_file_id_ = disk.RegisterFile();
  va->vector_file_id_ = disk.RegisterFile();
  IQ_ASSIGN_OR_RETURN(va->approx_file_, storage.Open(ApproxName(name)));
  IQ_ASSIGN_OR_RETURN(va->vector_file_, storage.Open(VectorName(name)));
  File& file = *va->approx_file_;
  if (file.Size() < sizeof(VaHeader)) {
    return Status::Corruption("VA approximation file too small");
  }
  VaHeader header;
  IQ_RETURN_NOT_OK(file.Read(0, sizeof(header), &header));
  if (header.magic != kVaMagic) {
    return Status::Corruption("bad VA-file magic");
  }
  if (header.bits < 1 || header.bits > 16 || header.dims == 0) {
    return Status::Corruption("implausible VA-file header");
  }
  va->dims_ = header.dims;
  va->count_ = header.count;
  va->options_.bits_per_dim = header.bits;
  va->options_.metric = static_cast<Metric>(header.metric);
  std::vector<float> lb(va->dims_), ub(va->dims_);
  IQ_RETURN_NOT_OK(file.Read(sizeof(header), sizeof(float) * va->dims_,
                             lb.data()));
  IQ_RETURN_NOT_OK(file.Read(sizeof(header) + sizeof(float) * va->dims_,
                             sizeof(float) * va->dims_, ub.data()));
  va->domain_ = Mbr::FromBounds(std::move(lb), std::move(ub));
  const uint32_t cells = uint32_t{1} << header.bits;
  va->cell_width_.resize(va->dims_);
  for (size_t i = 0; i < va->dims_; ++i) {
    va->cell_width_[i] = va->domain_.Extent(i) / static_cast<float>(cells);
  }
  const size_t approx_bytes =
      BytesForBits(header.count * va->dims_ * header.bits);
  const uint64_t approx_offset = sizeof(header) + 2 * sizeof(float) * va->dims_;
  if (file.Size() < approx_offset + approx_bytes) {
    return Status::Corruption("truncated VA approximation payload");
  }
  va->approx_.resize(approx_bytes);
  if (approx_bytes > 0) {
    IQ_RETURN_NOT_OK(file.Read(approx_offset, approx_bytes,
                               va->approx_.data()));
  }
  const uint64_t vector_bytes =
      header.count * va->dims_ * sizeof(float);
  if (va->vector_file_->Size() < vector_bytes) {
    return Status::Corruption("truncated VA vector file");
  }
  va->vectors_.resize(header.count * va->dims_);
  if (vector_bytes > 0) {
    IQ_RETURN_NOT_OK(va->vector_file_->Read(0, vector_bytes,
                                            va->vectors_.data()));
  }
  return va;
}

Status VaFile::Insert(PointView p) {
  if (p.size() != dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  return AppendToFiles(p);
}

Result<std::vector<Neighbor>> VaFile::KNearestNeighbors(PointView q,
                                                        size_t k) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  VaMetrics::Get().queries->Increment();
  std::vector<Neighbor> out;
  if (k == 0 || count_ == 0) {
    last_visit_fraction_.store(0.0, std::memory_order_relaxed);
    return out;
  }
  // Phase 1 (filter): sequential scan of the approximation file; track
  // delta = k-th smallest upper bound. The approximations are decoded
  // in chunks and bounded through the batch filter kernel, which is
  // bound to the same global grid as Bounds() and produces bit-identical
  // values (quant/filter_kernel.h).
  DiskHead head;
  ChargeApproximationScan(head);
  const unsigned bits = options_.bits_per_dim;
  FilterKernel kernel;
  kernel.BindBounds(q, options_.metric, domain_, bits);
  std::vector<double> lower(count_);
  std::vector<double> upper_chunk(std::min(kScanChunk, count_));
  std::vector<uint32_t> cells(std::min(kScanChunk, count_) * dims_);
  BitReader reader(approx_.data(), 0);
  std::priority_queue<double> upper_heap;  // max-heap of k smallest uppers
  IQ_HOT_NOALLOC_BEGIN;
  for (size_t base = 0; base < count_; base += kScanChunk) {
    const size_t n = std::min(kScanChunk, count_ - base);
    for (size_t j = 0; j < n * dims_; ++j) cells[j] = reader.Get(bits);
    kernel.Bounds(cells.data(), n, lower.data() + base, upper_chunk.data());
    for (size_t j = 0; j < n; ++j) {
      const double hi = upper_chunk[j];
      if (upper_heap.size() < k) {
        // iqlint: allow(hotpath-alloc): the heap never exceeds k
        // entries, so growth stops after the first k pushes.
        upper_heap.push(hi);
      } else if (hi < upper_heap.top()) {
        upper_heap.pop();
        // iqlint: allow(hotpath-alloc): replacement push into capacity
        // freed by the pop above; the heap stays at k entries.
        upper_heap.push(hi);
      }
    }
  }
  IQ_HOT_NOALLOC_END;
  const double delta = upper_heap.top();
  std::vector<uint32_t> candidates;
  for (size_t i = 0; i < count_; ++i) {
    if (lower[i] <= delta) candidates.push_back(static_cast<uint32_t>(i));
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](uint32_t a, uint32_t b) { return lower[a] < lower[b]; });
  // Phase 2 (refine): visit candidates in lower-bound order; stop when
  // the lower bound exceeds the current k-th exact distance.
  std::vector<Neighbor> best;
  double worst = std::numeric_limits<double>::infinity();
  size_t visited = 0;
  for (uint32_t index : candidates) {
    if (best.size() >= k && lower[index] >= worst) break;
    ChargeVectorLookup(head, index);
    ++visited;
    const double dist = Distance(q, Vector(index), options_.metric);
    // best is a bounded max-heap on distance: replacing the worst of k
    // results is O(log k) rather than two O(k) scans.
    if (best.size() < k) {
      best.push_back(Neighbor{index, dist});
      std::push_heap(best.begin(), best.end(), CloserNeighbor);
      if (best.size() == k) worst = best.front().distance;
    } else if (dist < worst) {
      std::pop_heap(best.begin(), best.end(), CloserNeighbor);
      best.back() = Neighbor{index, dist};
      std::push_heap(best.begin(), best.end(), CloserNeighbor);
      worst = best.front().distance;
    }
  }
  VaMetrics::Get().refinements->Add(visited);
  last_visit_fraction_.store(
      count_ > 0 ? static_cast<double>(visited) / count_ : 0.0,
      std::memory_order_relaxed);
  std::sort(best.begin(), best.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  return best;
}

Result<Neighbor> VaFile::NearestNeighbor(PointView q) const {
  IQ_ASSIGN_OR_RETURN(std::vector<Neighbor> out, KNearestNeighbors(q, 1));
  if (out.empty()) return Status::NotFound("empty index");
  return out.front();
}

Result<std::vector<PointId>> VaFile::WindowQuery(const Mbr& window) const {
  if (window.dims() != dims_) {
    return Status::InvalidArgument("window dimensionality mismatch");
  }
  DiskHead head;
  ChargeApproximationScan(head);
  const unsigned bits = options_.bits_per_dim;
  const uint32_t cells = uint32_t{1} << bits;
  std::vector<PointId> out;
  size_t visited = 0;
  for (size_t index = 0; index < count_; ++index) {
    BitReader reader(approx_.data(),
                     index * dims_ * static_cast<size_t>(bits));
    bool maybe = true;       // cell intersects the window
    bool contained = true;   // cell entirely inside the window
    for (size_t i = 0; i < dims_; ++i) {
      const uint32_t c = reader.Get(bits);
      const double cell_lb = domain_.lb(i) + cell_width_[i] * c;
      const double cell_ub =
          c + 1 == cells ? domain_.ub(i)
                         : domain_.lb(i) + cell_width_[i] * (c + 1);
      if (cell_ub < window.lb(i) || cell_lb > window.ub(i)) {
        maybe = false;
        break;
      }
      if (cell_lb < window.lb(i) || cell_ub > window.ub(i)) {
        contained = false;
      }
    }
    if (!maybe) continue;
    if (contained) {
      out.push_back(static_cast<PointId>(index));
      continue;
    }
    ChargeVectorLookup(head, index);
    ++visited;
    if (window.Contains(Vector(index))) {
      out.push_back(static_cast<PointId>(index));
    }
  }
  last_visit_fraction_.store(
      count_ > 0 ? static_cast<double>(visited) / count_ : 0.0,
      std::memory_order_relaxed);
  return out;
}

Result<std::vector<Neighbor>> VaFile::RangeSearch(PointView q,
                                                  double radius) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (radius < 0) return Status::InvalidArgument("negative radius");
  VaMetrics::Get().queries->Increment();
  DiskHead head;
  ChargeApproximationScan(head);
  // Phase 1 through the batch kernel (lower bounds only — bit-identical
  // to Bounds()); phase 2 refines the candidates of each chunk.
  const unsigned bits = options_.bits_per_dim;
  FilterKernel kernel;
  kernel.BindMinDist(q, options_.metric, domain_, bits);
  const size_t chunk = std::min(kScanChunk, count_);
  std::vector<uint32_t> cells(chunk * dims_);
  std::vector<uint32_t> candidates;
  BitReader reader(approx_.data(), 0);
  std::vector<Neighbor> out;
  size_t visited = 0;
  IQ_HOT_NOALLOC_BEGIN;
  for (size_t base = 0; base < count_; base += kScanChunk) {
    const size_t n = std::min(kScanChunk, count_ - base);
    for (size_t j = 0; j < n * dims_; ++j) cells[j] = reader.Get(bits);
    candidates.clear();
    kernel.SelectCandidates(cells.data(), n, radius, &candidates);
    for (uint32_t s : candidates) {
      const size_t i = base + s;
      ChargeVectorLookup(head, i);
      ++visited;
      const double dist = Distance(q, Vector(i), options_.metric);
      if (dist <= radius) {
        // iqlint: allow(hotpath-alloc): append to the query's result
        // vector — output, not scratch.
        out.push_back(Neighbor{static_cast<PointId>(i), dist});
      }
    }
  }
  IQ_HOT_NOALLOC_END;
  VaMetrics::Get().refinements->Add(visited);
  last_visit_fraction_.store(
      count_ > 0 ? static_cast<double>(visited) / count_ : 0.0,
      std::memory_order_relaxed);
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  return out;
}

}  // namespace iq
