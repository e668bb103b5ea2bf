#include "quant/filter_kernel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/hot_path.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "quant/filter_kernel_simd.h"

namespace iq {

namespace {

// Hot-path instrumentation (docs/perf_kernels.md): one relaxed
// increment per *batch*, never per point.
struct FilterMetrics {
  obs::Counter* points;
  obs::Counter* batches;
  obs::Counter* simd_batches;
  obs::Counter* table_binds;
  obs::Counter* direct_binds;
  obs::Histogram* batch_points;

  static const FilterMetrics& Get() {
    static constexpr double kBatchBounds[] = {16, 64, 256, 1024, 4096};
    auto& registry = obs::MetricRegistry::Global();
    static const FilterMetrics m{
        registry.GetCounter(obs::metric::kFilterPointsTotal),
        registry.GetCounter(obs::metric::kFilterBatchesTotal),
        registry.GetCounter(obs::metric::kFilterSimdBatchesTotal),
        registry.GetCounter(obs::metric::kFilterTableBindsTotal),
        registry.GetCounter(obs::metric::kFilterDirectBindsTotal),
        registry.GetHistogram(obs::metric::kFilterBatchPoints, kBatchBounds)};
    return m;
  }
};

std::atomic<KernelDispatch> g_dispatch{KernelDispatch::kAuto};

bool ForcedScalarByEnv() {
  static const bool forced = [] {
    const char* env = std::getenv("IQ_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  }();
  return forced;
}

bool UseAvx2() {
  switch (g_dispatch.load(std::memory_order_relaxed)) {
    case KernelDispatch::kScalar:
      return false;
    case KernelDispatch::kAvx2:
      return KernelAvx2Available();
    case KernelDispatch::kAuto:
      break;
  }
  return KernelAvx2Available() && !ForcedScalarByEnv();
}

/// max as MAXPD computes it: x > y ? x : y (so the scalar and AVX2
/// paths agree bit for bit, signed zeros included).
inline double MaxPd(double x, double y) { return x > y ? x : y; }

/// Portable FilterKernel::BoxMinDists. Blocks of boxes are swept
/// dimension-outer: each box still adds its terms in dimension order
/// (the AVX2 lane arithmetic, and MinDist's), while the rows are read
/// contiguously. A plain per-box loop reads one float per row, `stride`
/// floats apart, and measured 3-4x slower at d = 16 (micro_filter
/// box_relcost_scalar, docs/perf_kernels.md).
template <bool kL2>
IQ_HOT_NOALLOC void ScalarBoxMinDists(const float* q, size_t dims,
                                      const float* lo, const float* hi,
                                      size_t stride, size_t count,
                                      double* out) {
  constexpr size_t kBlock = 64;
  double acc[kBlock];
  for (size_t first = 0; first < count; first += kBlock) {
    const size_t m = std::min(kBlock, count - first);
    std::fill(acc, acc + m, 0.0);
    for (size_t i = 0; i < dims; ++i) {
      const double qd = q[i];
      const float* lo_row = lo + i * stride + first;
      const float* hi_row = hi + i * stride + first;
      for (size_t s = 0; s < m; ++s) {
        const double gap = MaxPd(static_cast<double>(lo_row[s]) - qd,
                                 qd - static_cast<double>(hi_row[s]));
        const double diff = MaxPd(gap, 0.0);
        if constexpr (kL2) {
          acc[s] += diff * diff;
        } else {
          acc[s] = MaxPd(acc[s], diff);
        }
      }
    }
    for (size_t s = 0; s < m; ++s) {
      out[first + s] = kL2 ? std::sqrt(acc[s]) : acc[s];
    }
  }
}

}  // namespace

void SetKernelDispatch(KernelDispatch dispatch) {
  g_dispatch.store(dispatch, std::memory_order_relaxed);
}

KernelDispatch kernel_dispatch() {
  return g_dispatch.load(std::memory_order_relaxed);
}

bool KernelAvx2Available() {
#if defined(IQ_HAVE_AVX2)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

const char* ActiveKernelName() { return UseAvx2() ? "avx2" : "scalar"; }

void FilterKernel::BindGrid(const Mbr& grid_mbr, unsigned bits) {
  assert(bits >= 1 && bits <= 31);
  dims_ = grid_mbr.dims();
  bits_ = bits;
  cells_per_dim_ = uint32_t{1} << bits;
  table_path_ = bits <= kMaxTableBits;
  // Same lattice as GridQuantizer(grid_mbr, bits) and the VA-file's
  // global grid: widths_[i] = Extent(i) / 2^g in float.
  grid_lb_.assign(grid_mbr.lower().begin(), grid_mbr.lower().end());
  grid_ub_.assign(grid_mbr.upper().begin(), grid_mbr.upper().end());
  grid_width_.resize(dims_);
  for (size_t i = 0; i < dims_; ++i) {
    grid_width_[i] =
        grid_mbr.Extent(i) / static_cast<float>(cells_per_dim_);
  }
  if (obs::kEnabled) {
    const FilterMetrics& m = FilterMetrics::Get();
    (table_path_ ? m.table_binds : m.direct_binds)->Increment();
  }
}

double FilterKernel::LowerContribution(size_t dim, uint32_t c) const {
  // Exactly MinDist() over the cell interval: float bounds, double
  // differences. The L2 contribution is the squared diff (the caller
  // sums and takes one sqrt), the L-max contribution is the diff (the
  // caller maxes).
  const float cell_lb = CellLower(dim, c);
  const float cell_ub = CellUpper(dim, c);
  const float q = q_[dim];
  double diff = 0.0;
  if (q < cell_lb) {
    diff = cell_lb - static_cast<double>(q);
  } else if (q > cell_ub) {
    diff = static_cast<double>(q) - cell_ub;
  }
  return metric_ == Metric::kL2 ? diff * diff : diff;
}

double FilterKernel::UpperContribution(size_t dim, uint32_t c) const {
  // Exactly MaxDist() over the cell interval.
  const float cell_lb = CellLower(dim, c);
  const float cell_ub = CellUpper(dim, c);
  const double q = q_[dim];
  const double hi = std::max(std::abs(q - cell_lb), std::abs(q - cell_ub));
  return metric_ == Metric::kL2 ? hi * hi : hi;
}

bool FilterKernel::WindowIntersectsCell(size_t dim, uint32_t c) const {
  // Exactly Mbr::Intersects() in one dimension.
  const float cell_lb = CellLower(dim, c);
  const float cell_ub = CellUpper(dim, c);
  return !(win_lb_[dim] > cell_ub || cell_lb > win_ub_[dim]);
}

void FilterKernel::BuildDistanceTables(bool need_upper) {
  if (!table_path_) {
    lower_tab_.clear();
    upper_tab_.clear();
    return;
  }
  const size_t stride = cells_per_dim_;
  lower_tab_.resize(dims_ * stride);
  if (need_upper) upper_tab_.resize(dims_ * stride);
  edges_.resize(stride + 1);
  double* e = edges_.data();
  const bool l2 = metric_ == Metric::kL2;
  for (size_t i = 0; i < dims_; ++i) {
    // Edge row: cell c spans [e[c], e[c + 1]], its CellLower and
    // CellUpper widened to double, each edge computed once.
    for (uint32_t c = 0; c < cells_per_dim_; ++c) e[c] = CellLower(i, c);
    e[stride] = grid_ub_[i];
    const double q = q_[i];
    double* lo_row = lower_tab_.data() + i * stride;
    for (size_t c = 0; c < stride; ++c) {
      // `a > 0` is exactly LowerContribution's float test q < cell_lb (a
      // difference of two distinct floats is never 0 in double) and wins,
      // so even a degenerate last cell matches to 0 ULP. Both differences
      // are unconditional, so at -O3 the row vectorizes.
      const double a = e[c] - q;
      const double b = q - e[c + 1];
      const double above = b > 0 ? b : 0.0;
      const double diff = a > 0 ? a : above;
      lo_row[c] = l2 ? diff * diff : diff;
    }
    if (need_upper) {
      double* hi_row = upper_tab_.data() + i * stride;
      for (size_t c = 0; c < stride; ++c) {
        const double hi =
            std::max(std::abs(q - e[c]), std::abs(q - e[c + 1]));
        hi_row[c] = l2 ? hi * hi : hi;
      }
    }
  }
}

void FilterKernel::BuildWindowTables() {
  if (!table_path_) {
    win_tab_.clear();
    return;
  }
  const size_t stride = cells_per_dim_;
  win_tab_.resize(dims_ * stride);
  for (size_t i = 0; i < dims_; ++i) {
    uint8_t* row = win_tab_.data() + i * stride;
    for (uint32_t c = 0; c < cells_per_dim_; ++c) {
      row[c] = WindowIntersectsCell(i, c) ? 1 : 0;
    }
  }
}

void FilterKernel::BindMinDist(PointView q, Metric metric,
                               const Mbr& grid_mbr, unsigned bits) {
  assert(q.size() == grid_mbr.dims());
  mode_ = Mode::kMinDist;
  q_ = q;
  metric_ = metric;
  BindGrid(grid_mbr, bits);
  BuildDistanceTables(/*need_upper=*/false);
}

void FilterKernel::BindBounds(PointView q, Metric metric,
                              const Mbr& grid_mbr, unsigned bits) {
  assert(q.size() == grid_mbr.dims());
  mode_ = Mode::kBounds;
  q_ = q;
  metric_ = metric;
  BindGrid(grid_mbr, bits);
  BuildDistanceTables(/*need_upper=*/true);
}

void FilterKernel::BindWindow(const Mbr& window, const Mbr& grid_mbr,
                              unsigned bits) {
  assert(window.dims() == grid_mbr.dims());
  mode_ = Mode::kWindow;
  win_lb_.assign(window.lower().begin(), window.lower().end());
  win_ub_.assign(window.upper().begin(), window.upper().end());
  BindGrid(grid_mbr, bits);
  BuildWindowTables();
}

IQ_HOT_NOALLOC
void FilterKernel::ComputeScalar(const uint32_t* cells, size_t count,
                                 double* lower, double* upper) const {
  const size_t stride = cells_per_dim_;
  const bool l2 = metric_ == Metric::kL2;
  for (size_t s = 0; s < count; ++s) {
    const uint32_t* pc = cells + s * dims_;
    double lo = 0.0;
    double hi = 0.0;
    if (table_path_) {
      if (l2) {
        for (size_t i = 0; i < dims_; ++i) lo += lower_tab_[i * stride + pc[i]];
        if (upper != nullptr) {
          for (size_t i = 0; i < dims_; ++i) {
            hi += upper_tab_[i * stride + pc[i]];
          }
        }
      } else {
        for (size_t i = 0; i < dims_; ++i) {
          lo = std::max(lo, lower_tab_[i * stride + pc[i]]);
        }
        if (upper != nullptr) {
          for (size_t i = 0; i < dims_; ++i) {
            hi = std::max(hi, upper_tab_[i * stride + pc[i]]);
          }
        }
      }
    } else {
      if (l2) {
        for (size_t i = 0; i < dims_; ++i) lo += LowerContribution(i, pc[i]);
        if (upper != nullptr) {
          for (size_t i = 0; i < dims_; ++i) {
            hi += UpperContribution(i, pc[i]);
          }
        }
      } else {
        for (size_t i = 0; i < dims_; ++i) {
          lo = std::max(lo, LowerContribution(i, pc[i]));
        }
        if (upper != nullptr) {
          for (size_t i = 0; i < dims_; ++i) {
            hi = std::max(hi, UpperContribution(i, pc[i]));
          }
        }
      }
    }
    lower[s] = l2 ? std::sqrt(lo) : lo;
    if (upper != nullptr) upper[s] = l2 ? std::sqrt(hi) : hi;
  }
}

IQ_HOT_NOALLOC
void FilterKernel::MinDistLowerBounds(const uint32_t* cells, size_t count,
                                      double* out) const {
  assert(mode_ == Mode::kMinDist || mode_ == Mode::kBounds);
  if (count == 0) return;
  const bool avx2 = table_path_ && UseAvx2();
  if (obs::kEnabled) {
    const FilterMetrics& m = FilterMetrics::Get();
    m.points->Add(count);
    m.batches->Increment();
    if (avx2) m.simd_batches->Increment();
    m.batch_points->Observe(static_cast<double>(count));
  }
#if defined(IQ_HAVE_AVX2)
  if (avx2) {
    internal::Avx2TableBounds(lower_tab_.data(), nullptr, dims_,
                              cells_per_dim_, metric_ == Metric::kL2, cells,
                              count, out, nullptr);
    return;
  }
#endif
  ComputeScalar(cells, count, out, nullptr);
}

IQ_HOT_NOALLOC
void FilterKernel::Bounds(const uint32_t* cells, size_t count, double* lower,
                          double* upper) const {
  assert(mode_ == Mode::kBounds);
  if (count == 0) return;
  const bool avx2 = table_path_ && UseAvx2();
  if (obs::kEnabled) {
    const FilterMetrics& m = FilterMetrics::Get();
    m.points->Add(count);
    m.batches->Increment();
    if (avx2) m.simd_batches->Increment();
    m.batch_points->Observe(static_cast<double>(count));
  }
#if defined(IQ_HAVE_AVX2)
  if (avx2) {
    internal::Avx2TableBounds(lower_tab_.data(), upper_tab_.data(), dims_,
                              cells_per_dim_, metric_ == Metric::kL2, cells,
                              count, lower, upper);
    return;
  }
#endif
  ComputeScalar(cells, count, lower, upper);
}

IQ_HOT_NOALLOC
void FilterKernel::SelectCandidates(const uint32_t* cells, size_t count,
                                    double threshold,
                                    std::vector<uint32_t>* out) {
  if (count == 0) return;
  // iqlint: allow(hotpath-alloc): resize of a reused member scratch
  // buffer — steady state never exceeds the high-water capacity.
  bounds_scratch_.resize(count);
  MinDistLowerBounds(cells, count, bounds_scratch_.data());
  for (size_t s = 0; s < count; ++s) {
    if (bounds_scratch_[s] <= threshold) {
      // iqlint: allow(hotpath-alloc): caller-owned candidate vector
      out->push_back(static_cast<uint32_t>(s));
    }
  }
}

IQ_HOT_NOALLOC
void FilterKernel::WindowCandidates(const uint32_t* cells, size_t count,
                                    std::vector<uint32_t>* out) const {
  assert(mode_ == Mode::kWindow);
  if (count == 0) return;
  if (obs::kEnabled) {
    const FilterMetrics& m = FilterMetrics::Get();
    m.points->Add(count);
    m.batches->Increment();
    m.batch_points->Observe(static_cast<double>(count));
  }
  const size_t stride = cells_per_dim_;
  for (size_t s = 0; s < count; ++s) {
    const uint32_t* pc = cells + s * dims_;
    bool hit = true;
    if (table_path_) {
      for (size_t i = 0; i < dims_; ++i) {
        if (win_tab_[i * stride + pc[i]] == 0) {
          hit = false;
          break;
        }
      }
    } else {
      for (size_t i = 0; i < dims_; ++i) {
        if (!WindowIntersectsCell(i, pc[i])) {
          hit = false;
          break;
        }
      }
    }
    // iqlint: allow(hotpath-alloc): append to the caller-owned,
    // caller-reserved candidate vector.
    if (hit) out->push_back(static_cast<uint32_t>(s));
  }
}

IQ_HOT_NOALLOC
void FilterKernel::BatchDistances(PointView q, Metric metric,
                                  const float* points, size_t count,
                                  double* out) {
  if (count == 0) return;
  const size_t dims = q.size();
  const bool avx2 = UseAvx2();
  if (obs::kEnabled) {
    const FilterMetrics& m = FilterMetrics::Get();
    m.points->Add(count);
    m.batches->Increment();
    if (avx2) m.simd_batches->Increment();
    m.batch_points->Observe(static_cast<double>(count));
  }
#if defined(IQ_HAVE_AVX2)
  if (avx2) {
    internal::Avx2Distances(q.data(), dims, metric == Metric::kL2, points,
                            count, out);
    return;
  }
#endif
  // Exactly Distance() per point.
  if (metric == Metric::kL2) {
    for (size_t s = 0; s < count; ++s) {
      const float* p = points + s * dims;
      double sum = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        const double diff = static_cast<double>(q[i]) - p[i];
        sum += diff * diff;
      }
      out[s] = std::sqrt(sum);
    }
    return;
  }
  for (size_t s = 0; s < count; ++s) {
    const float* p = points + s * dims;
    double m = 0.0;
    for (size_t i = 0; i < dims; ++i) {
      m = std::max(m, std::abs(static_cast<double>(q[i]) - p[i]));
    }
    out[s] = m;
  }
}

IQ_HOT_NOALLOC
void FilterKernel::BoxMinDists(PointView q, Metric metric, const float* lo,
                               const float* hi, size_t stride, size_t count,
                               double* out) {
  if (count == 0) return;
  const size_t dims = q.size();
  const bool l2 = metric == Metric::kL2;
#if defined(IQ_HAVE_AVX2)
  if (UseAvx2()) {
    internal::Avx2BoxMinDists(q.data(), dims, l2, lo, hi, stride, count, out);
    return;
  }
#endif
  if (l2) {
    ScalarBoxMinDists<true>(q.data(), dims, lo, hi, stride, count, out);
  } else {
    ScalarBoxMinDists<false>(q.data(), dims, lo, hi, stride, count, out);
  }
}

}  // namespace iq
