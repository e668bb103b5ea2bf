#ifndef IQ_QUANT_FILTER_KERNEL_H_
#define IQ_QUANT_FILTER_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/contract.h"
#include "geom/mbr.h"
#include "geom/metrics.h"
#include "geom/point.h"

namespace iq {

/// Which batch-kernel implementation the process uses
/// (docs/perf_kernels.md). The default (kAuto) picks AVX2 when it is
/// compiled in, the CPU supports it, and the IQ_FORCE_SCALAR
/// environment variable is unset/0; kScalar and kAvx2 force one path
/// (tests use this to compare the two). Both paths produce bit-identical
/// bounds, so the choice is invisible to query results.
enum class KernelDispatch {
  kAuto,
  kScalar,
  kAvx2,
};

/// Process-wide dispatch override (thread-safe; takes effect on the
/// next kernel batch call). kAvx2 silently falls back to scalar when
/// AVX2 is unavailable — check KernelAvx2Available() first.
void SetKernelDispatch(KernelDispatch dispatch);
KernelDispatch kernel_dispatch();

/// True when the AVX2 kernels are compiled in and this CPU supports
/// them (ignores the dispatch override and IQ_FORCE_SCALAR).
bool KernelAvx2Available();

/// "avx2" or "scalar" — what a batch call issued right now would run.
const char* ActiveKernelName();

/// Allocation-free batch filter kernels for the quantized scan hot path.
///
/// The per-point filter step of every level-2 scan used to build a
/// cell-box Mbr (two vector allocations) and call MinDist per point.
/// This kernel instead precomputes, per dimension, a lookup table of the
/// query's distance contribution to each of the 2^g grid cells — the
/// per-point bound becomes d table lookups and adds ("Accelerated
/// Distance Computation with Encoding Tree", PAPERS.md). Above the
/// table-size cap (g > kMaxTableBits) it falls back to computing the
/// per-dimension contribution directly from the cell index; both paths
/// run the same double arithmetic as MinDist/MaxDist over
/// GridQuantizer::CellBox, so every bound is bit-identical to the
/// pre-kernel code.
///
/// Usage: default-construct once per query (or reuse across queries),
/// Bind* per grid (per page for the IQ-tree, once for the VA-file),
/// then issue batch calls over whole pages. Rebinding reuses table
/// capacity, and the batch calls allocate nothing, so the steady state
/// is zero heap traffic per point *and* per page.
///
/// Thread-compatibility: one FilterKernel per thread (like the
/// searcher that owns it). The dispatch override is global and
/// thread-safe.
class FilterKernel {
 public:
  /// Table cap: per-dimension tables are built for g <= kMaxTableBits
  /// (2^12 = 4096 entries/dim); coarser-than-table grids use the direct
  /// path. Covers the IQ-tree ladder g <= 8 and typical VA-file rates.
  static constexpr unsigned kMaxTableBits = 12;

  /// Bind-before-query protocol (common/contract.h, iqlint check
  /// `typestate`): batch calls are only legal under the binding that
  /// builds their tables — the runtime asserts this, and the typestate
  /// annotations below make the query-before-Bind ordering a static
  /// finding too.
  IQ_TYPESTATE("unbound");

  FilterKernel() = default;

  /// Binds the kernel to lower-bound (MINDIST) filtering against the
  /// grid spanning `grid_mbr` with 2^bits cells per dimension — the
  /// lattice of GridQuantizer(grid_mbr, bits) (and of the VA-file's
  /// global grid, which uses the same cell arithmetic). `q` must
  /// outlive the binding.
  void BindMinDist(PointView q, Metric metric, const Mbr& grid_mbr,
                   unsigned bits) IQ_TS_TRANSITION("*", "mindist");

  /// Binds lower *and* upper bound (MINDIST/MAXDIST) filtering — the
  /// VA-file phase-1 scan needs both.
  void BindBounds(PointView q, Metric metric, const Mbr& grid_mbr,
                  unsigned bits) IQ_TS_TRANSITION("*", "bounds");

  /// Binds window-intersection filtering: a point is a candidate when
  /// its cell box intersects `window` (bit-identical to
  /// window.Intersects(quantizer.CellBox(...))). `window` is copied.
  void BindWindow(const Mbr& window, const Mbr& grid_mbr, unsigned bits)
      IQ_TS_TRANSITION("*", "window");

  /// True when the current binding filters through lookup tables
  /// (bits <= kMaxTableBits); false on the direct fallback path.
  bool table_path() const { return table_path_; }

  size_t dims() const { return dims_; }

  /// Lower bounds (MINDIST to the cell box) for `count` points whose
  /// cell indices are `cells` (count*dims, point-major, as decoded by
  /// QuantPageCodec::DecodeCells); writes count doubles to `out`.
  /// Requires BindMinDist or BindBounds.
  void MinDistLowerBounds(const uint32_t* cells, size_t count,
                          double* out) const IQ_TS_REQUIRES("mindist|bounds");

  /// Lower and upper bounds per point (requires BindBounds).
  void Bounds(const uint32_t* cells, size_t count, double* lower,
              double* upper) const IQ_TS_REQUIRES("bounds");

  /// Candidate selection over a whole page: appends to `*out` (not
  /// cleared) the indices s < count whose lower bound is <= threshold.
  /// Requires BindMinDist or BindBounds.
  void SelectCandidates(const uint32_t* cells, size_t count,
                        double threshold, std::vector<uint32_t>* out)
      IQ_TS_REQUIRES("mindist|bounds");

  /// Window candidates: appends indices whose cell box intersects the
  /// bound window (requires BindWindow).
  void WindowCandidates(const uint32_t* cells, size_t count,
                        std::vector<uint32_t>* out) const
      IQ_TS_REQUIRES("window");

  /// Batch exact distances: distances from `q` to `count` row-major
  /// `dims(q)`-dimensional float points, bit-identical to Distance()
  /// per point. Used by SeqScan and the exact-page refinement loops.
  static void BatchDistances(PointView q, Metric metric,
                             const float* points, size_t count, double* out);

  /// Batch MINDIST to `count` boxes stored dimension-major: box j spans
  /// [lo[i*stride + j], hi[i*stride + j]] in dimension i (stride >=
  /// count). Bit-identical to MinDist(q, box_j, metric) for every box
  /// with lb <= ub per side, including degenerate sides, as long as `q`
  /// is finite (docs/perf_kernels.md, "Directory MINDIST"). Serves the
  /// IQ-tree's level-1 directory sweep.
  static void BoxMinDists(PointView q, Metric metric, const float* lo,
                          const float* hi, size_t stride, size_t count,
                          double* out);

 private:
  enum class Mode { kUnbound, kMinDist, kBounds, kWindow };

  void BindGrid(const Mbr& grid_mbr, unsigned bits);
  void BuildDistanceTables(bool need_upper);
  void BuildWindowTables();

  /// Per-dim contribution of cell c in dim i to the lower bound
  /// (squared diff for L2, |diff| for L-max) on the direct path.
  /// BuildDistanceTables computes the same doubles from a row of cell
  /// edges; the equivalence suite pins both to MinDist/MaxDist.
  double LowerContribution(size_t dim, uint32_t c) const;
  double UpperContribution(size_t dim, uint32_t c) const;
  bool WindowIntersectsCell(size_t dim, uint32_t c) const;

  /// Cell interval [CellLower, CellUpper] of cell c in dim i — the same
  /// float lattice GridQuantizer computes (the filter_kernel_test
  /// equivalence suite pins the agreement).
  float CellLower(size_t dim, uint32_t c) const {
    return grid_lb_[dim] + grid_width_[dim] * static_cast<float>(c);
  }
  float CellUpper(size_t dim, uint32_t c) const {
    if (c + 1 == cells_per_dim_) return grid_ub_[dim];
    return grid_lb_[dim] + grid_width_[dim] * static_cast<float>(c + 1);
  }

  void ComputeScalar(const uint32_t* cells, size_t count, double* lower,
                     double* upper) const;

  Mode mode_ = Mode::kUnbound;
  PointView q_;
  Metric metric_ = Metric::kL2;
  size_t dims_ = 0;
  unsigned bits_ = 0;
  uint32_t cells_per_dim_ = 0;
  bool table_path_ = false;

  // Grid geometry (copied so bindings never dangle; capacity reused
  // across rebinds).
  std::vector<float> grid_lb_;
  std::vector<float> grid_ub_;
  std::vector<float> grid_width_;

  // Window geometry (BindWindow).
  std::vector<float> win_lb_;
  std::vector<float> win_ub_;

  // Lookup tables, row-major: entry for (dim i, cell c) at i*2^g + c.
  std::vector<double> lower_tab_;
  std::vector<double> upper_tab_;
  std::vector<uint8_t> win_tab_;
  // Cell edges of the dimension being tabled (2^g + 1 entries).
  std::vector<double> edges_;

  // Scratch for SelectCandidates (reused, never shrunk).
  std::vector<double> bounds_scratch_;
};

}  // namespace iq

#endif  // IQ_QUANT_FILTER_KERNEL_H_
