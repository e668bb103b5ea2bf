#include "quant/filter_kernel.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "geom/metrics.h"
#include "quant/grid_quantizer.h"
#include "scan/seq_scan.h"
#include "vafile/va_file.h"

// ---------------------------------------------------------------------------
// Counting allocator: proves the batch kernels are allocation-free in
// steady state. Only allocations made while g_counting is set are
// counted; everything else passes straight through to malloc.
// ---------------------------------------------------------------------------
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace iq {
namespace {

/// Restores the process-wide dispatch on scope exit so a failing test
/// cannot leak a forced kernel into later tests.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(KernelDispatch d) { SetKernelDispatch(d); }
  ~ScopedDispatch() { SetKernelDispatch(KernelDispatch::kAuto); }
};

struct GridCase {
  Mbr mbr;
  std::vector<float> q;
  std::vector<uint32_t> cells;  // count * dims, point-major
  size_t count;
};

/// Random grid + query + encoded points. The query is drawn from a box
/// 3x the MBR so below/inside/above cases all occur per dimension, and
/// the count is odd so the AVX2 tail path is always exercised.
GridCase MakeCase(Rng& rng, size_t dims, unsigned bits, size_t count) {
  GridCase c;
  std::vector<float> lb(dims), ub(dims);
  for (size_t i = 0; i < dims; ++i) {
    const double a = rng.Uniform(-10, 10), b = rng.Uniform(-10, 10);
    lb[i] = static_cast<float>(std::min(a, b));
    ub[i] = static_cast<float>(std::max(a, b));
  }
  c.mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
  c.q.resize(dims);
  for (size_t i = 0; i < dims; ++i) {
    const double ext = std::max<double>(c.mbr.Extent(i), 1e-3);
    c.q[i] = static_cast<float>(
        rng.Uniform(c.mbr.lb(i) - ext, c.mbr.ub(i) + ext));
  }
  c.count = count;
  c.cells.resize(count * dims);
  const uint64_t cells_per_dim = uint64_t{1} << bits;
  for (auto& cell : c.cells) {
    cell = static_cast<uint32_t>(rng.Index(cells_per_dim));
  }
  return c;
}

/// `c` with the edge inputs MakeCase never draws, cycling per
/// dimension: zero extent (lb == ub) with the query on it, the query
/// exactly on the lower edge of point 0's cell, zero extent with the
/// query off it, and the query exactly on the upper edge of point 0's
/// cell (ub for the last cell).
GridCase WithEdges(GridCase c, unsigned bits) {
  const size_t dims = c.q.size();
  std::vector<float> lb(c.mbr.lower().begin(), c.mbr.lower().end());
  std::vector<float> ub(c.mbr.upper().begin(), c.mbr.upper().end());
  for (size_t i = 0; i < dims; i += 2) ub[i] = lb[i];
  c.mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
  const GridQuantizer quantizer(c.mbr, bits);
  for (size_t i = 0; i < dims; ++i) {
    switch (i % 4) {
      case 0: c.q[i] = c.mbr.lb(i); break;
      case 1: c.q[i] = quantizer.CellLower(i, c.cells[i]); break;
      case 3: c.q[i] = quantizer.CellUpper(i, c.cells[i]); break;
      default: break;
    }
  }
  return c;
}

/// 0-ULP comparison: the doubles must be the same bit pattern (all
/// values here are finite, so == is exactly that).
#define EXPECT_BITEQ(a, b) EXPECT_EQ(a, b)

// The full g ladder through the table path (<= kMaxTableBits) plus 16
// (the VA-file maximum, direct path). g = 32 is kExactBits: those pages
// bypass the cell filter entirely and are covered by the BatchDistances
// tests below.
const unsigned kAllBits[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16};
const size_t kAllDims[] = {2, 8, 16, 64};

TEST(FilterKernelEquivalence, BoundsMatchCellBoxMinDistMaxDist) {
  Rng rng(20260806);
  FilterKernel kernel;
  std::vector<double> lower, upper;
  std::vector<uint32_t> point_cells;
  for (unsigned bits : kAllBits) {
    for (size_t dims : kAllDims) {
      for (Metric metric : {Metric::kL2, Metric::kLMax}) {
        const GridCase random = MakeCase(rng, dims, bits, 37);
        for (const GridCase& c : {random, WithEdges(random, bits)}) {
          kernel.BindBounds(c.q, metric, c.mbr, bits);
          EXPECT_EQ(kernel.table_path(),
                    bits <= FilterKernel::kMaxTableBits);
          lower.assign(c.count, -1);
          upper.assign(c.count, -1);
          ScopedDispatch scalar(KernelDispatch::kScalar);
          kernel.Bounds(c.cells.data(), c.count, lower.data(), upper.data());
          const GridQuantizer quantizer(c.mbr, bits);
          for (size_t s = 0; s < c.count; ++s) {
            point_cells.assign(c.cells.begin() + s * dims,
                               c.cells.begin() + (s + 1) * dims);
            const Mbr box = quantizer.CellBox(point_cells);
            EXPECT_BITEQ(lower[s], MinDist(c.q, box, metric))
                << "bits=" << bits << " dims=" << dims << " s=" << s;
            EXPECT_BITEQ(upper[s], MaxDist(c.q, box, metric))
                << "bits=" << bits << " dims=" << dims << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(FilterKernelEquivalence, ScalarAndAvx2AgreeToZeroUlp) {
  if (!KernelAvx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or unsupported CPU";
  }
  Rng rng(7);
  FilterKernel kernel;
  std::vector<double> lo_s, hi_s, lo_v, hi_v;
  for (unsigned bits : kAllBits) {
    for (size_t dims : kAllDims) {
      for (Metric metric : {Metric::kL2, Metric::kLMax}) {
        const GridCase random = MakeCase(rng, dims, bits, 41);
        for (const GridCase& c : {random, WithEdges(random, bits)}) {
          kernel.BindBounds(c.q, metric, c.mbr, bits);
          lo_s.assign(c.count, -1);
          hi_s.assign(c.count, -1);
          lo_v.assign(c.count, -2);
          hi_v.assign(c.count, -2);
          {
            ScopedDispatch scalar(KernelDispatch::kScalar);
            kernel.Bounds(c.cells.data(), c.count, lo_s.data(), hi_s.data());
          }
          {
            ScopedDispatch avx2(KernelDispatch::kAvx2);
            kernel.Bounds(c.cells.data(), c.count, lo_v.data(), hi_v.data());
          }
          EXPECT_EQ(std::memcmp(lo_s.data(), lo_v.data(),
                                c.count * sizeof(double)),
                    0)
              << "bits=" << bits << " dims=" << dims;
          EXPECT_EQ(std::memcmp(hi_s.data(), hi_v.data(),
                                c.count * sizeof(double)),
                    0)
              << "bits=" << bits << " dims=" << dims;
        }
      }
    }
  }
}

/// Side [lb, ub] in one dimension relative to the query coordinate `qc`,
/// cycling through every relation MinDist branches on: q inside, on the
/// lower or upper edge, below or above the box, and degenerate sides
/// (lb == ub) at and away from q.
void MakeSide(Rng& rng, float qc, int relation, float* lb, float* ub) {
  const float a = static_cast<float>(rng.Uniform(0.01, 2));
  const float b = static_cast<float>(rng.Uniform(0.01, 2));
  switch (relation) {
    case 0: *lb = qc - a; *ub = qc + b; break;      // inside
    case 1: *lb = qc; *ub = qc + b; break;          // on the lower edge
    case 2: *lb = qc - a; *ub = qc; break;          // on the upper edge
    case 3: *lb = qc - a - b; *ub = qc - a; break;  // box below q
    case 4: *lb = qc + a; *ub = qc + a + b; break;  // box above q
    case 5: *lb = qc; *ub = qc; break;              // degenerate at q
    default: *lb = qc + a; *ub = qc + a; break;     // degenerate away
  }
}

TEST(FilterKernelEquivalence, BoxMinDistsMatchMinDistToZeroUlp) {
  Rng rng(20261017);
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 11; ++n) counts.push_back(n);
  counts.push_back(3071);
  std::vector<KernelDispatch> dispatches{KernelDispatch::kScalar};
  if (KernelAvx2Available()) dispatches.push_back(KernelDispatch::kAvx2);
  for (size_t dims : {2u, 9u, 16u, 64u}) {
    for (Metric metric : {Metric::kL2, Metric::kLMax}) {
      for (size_t count : counts) {
        std::vector<float> q(dims);
        for (float& x : q) x = static_cast<float>(rng.Uniform(-5, 5));
        // stride > count, so a kernel that indexes by count instead of
        // stride fails; the NaN tail shows any read past `count`.
        const size_t stride = count + 5;
        std::vector<float> lo(dims * stride, std::nanf(""));
        std::vector<float> hi(dims * stride, std::nanf(""));
        std::vector<Mbr> boxes;
        for (size_t j = 0; j < count; ++j) {
          std::vector<float> lb(dims), ub(dims);
          for (size_t i = 0; i < dims; ++i) {
            // Whole boxes around q, with q on their boundary, and mixed
            // per-dimension relations (mostly outside the box).
            const int relation =
                j % 3 == 0 ? static_cast<int>(rng.Index(3))
                           : (j % 3 == 1 ? 1 + static_cast<int>(rng.Index(2))
                                         : static_cast<int>(rng.Index(7)));
            MakeSide(rng, q[i], relation, &lb[i], &ub[i]);
            lo[i * stride + j] = lb[i];
            hi[i * stride + j] = ub[i];
          }
          boxes.push_back(Mbr::FromBounds(std::move(lb), std::move(ub)));
        }
        for (KernelDispatch d : dispatches) {
          ScopedDispatch dispatch(d);
          std::vector<double> out(count + 1, -1.0);
          FilterKernel::BoxMinDists(q, metric, lo.data(), hi.data(), stride,
                                    count, out.data());
          for (size_t j = 0; j < count; ++j) {
            const double want = MinDist(q, boxes[j], metric);
            EXPECT_EQ(std::memcmp(&out[j], &want, sizeof(double)), 0)
                << ActiveKernelName() << " dims=" << dims << " count="
                << count << " box " << j << ": " << out[j] << " vs "
                << want;
          }
          EXPECT_EQ(out[count], -1.0) << "wrote past count";
        }
      }
    }
  }
}

TEST(FilterKernelEquivalence, MinDistLowerBoundsMatchesBoundsLower) {
  Rng rng(99);
  FilterKernel kernel;
  const GridCase c = MakeCase(rng, 8, 6, 100);
  std::vector<double> lower(c.count), both_lower(c.count), upper(c.count);
  kernel.BindBounds(c.q, Metric::kL2, c.mbr, 6);
  kernel.Bounds(c.cells.data(), c.count, both_lower.data(), upper.data());
  kernel.BindMinDist(c.q, Metric::kL2, c.mbr, 6);
  kernel.MinDistLowerBounds(c.cells.data(), c.count, lower.data());
  for (size_t s = 0; s < c.count; ++s) {
    EXPECT_BITEQ(lower[s], both_lower[s]);
    EXPECT_LE(lower[s], upper[s]);
  }
}

TEST(FilterKernelEquivalence, SelectCandidatesAppliesThreshold) {
  Rng rng(5);
  FilterKernel kernel;
  const GridCase c = MakeCase(rng, 16, 4, 200);
  std::vector<double> lower(c.count);
  kernel.BindMinDist(c.q, Metric::kL2, c.mbr, 4);
  kernel.MinDistLowerBounds(c.cells.data(), c.count, lower.data());
  std::vector<double> sorted = lower;
  std::sort(sorted.begin(), sorted.end());
  const double threshold = sorted[c.count / 2];
  std::vector<uint32_t> candidates;
  kernel.SelectCandidates(c.cells.data(), c.count, threshold, &candidates);
  std::vector<uint32_t> expected;
  for (size_t s = 0; s < c.count; ++s) {
    if (lower[s] <= threshold) expected.push_back(static_cast<uint32_t>(s));
  }
  EXPECT_EQ(candidates, expected);
}

TEST(FilterKernelEquivalence, WindowCandidatesMatchIntersects) {
  Rng rng(13);
  FilterKernel kernel;
  std::vector<uint32_t> point_cells, candidates;
  for (unsigned bits : kAllBits) {
    for (size_t dims : {2u, 8u, 16u}) {
      const GridCase c = MakeCase(rng, dims, bits, 60);
      // Window: a random sub-box around a point of the grid region.
      std::vector<float> wlb(dims), wub(dims);
      for (size_t i = 0; i < dims; ++i) {
        const double a = rng.Uniform(c.mbr.lb(i), c.mbr.ub(i));
        const double b = rng.Uniform(c.mbr.lb(i), c.mbr.ub(i));
        wlb[i] = static_cast<float>(std::min(a, b));
        wub[i] = static_cast<float>(std::max(a, b));
      }
      const Mbr window = Mbr::FromBounds(std::move(wlb), std::move(wub));
      kernel.BindWindow(window, c.mbr, bits);
      candidates.clear();
      kernel.WindowCandidates(c.cells.data(), c.count, &candidates);
      const GridQuantizer quantizer(c.mbr, bits);
      std::vector<uint32_t> expected;
      for (size_t s = 0; s < c.count; ++s) {
        point_cells.assign(c.cells.begin() + s * dims,
                           c.cells.begin() + (s + 1) * dims);
        if (window.Intersects(quantizer.CellBox(point_cells))) {
          expected.push_back(static_cast<uint32_t>(s));
        }
      }
      EXPECT_EQ(candidates, expected) << "bits=" << bits << " dims=" << dims;
    }
  }
}

TEST(FilterKernelEquivalence, BatchDistancesMatchesDistance) {
  // (dims, count). The AVX2 kernel takes four points per step and four
  // dimensions per transposed row block; d = 1 and 3 are all dimension
  // tail, d = 5 and 17 have full blocks plus a tail, and counts 0-9
  // cover every point-tail length.
  std::vector<std::pair<size_t, size_t>> cases;
  for (size_t dims : kAllDims) cases.emplace_back(dims, 53);
  for (size_t dims : {1u, 3u, 5u, 17u}) {
    for (size_t count = 0; count <= 9; ++count) {
      cases.emplace_back(dims, count);
    }
  }
  Rng rng(1234);
  for (const auto& [dims, count] : cases) {
    for (Metric metric : {Metric::kL2, Metric::kLMax}) {
      std::vector<float> q(dims), points(count * dims);
      for (auto& v : q) v = static_cast<float>(rng.Uniform(-5, 5));
      for (auto& v : points) v = static_cast<float>(rng.Uniform(-5, 5));
      std::vector<double> scalar_out(count, -1);
      {
        ScopedDispatch scalar(KernelDispatch::kScalar);
        FilterKernel::BatchDistances(q, metric, points.data(), count,
                                     scalar_out.data());
      }
      for (size_t s = 0; s < count; ++s) {
        EXPECT_BITEQ(
            scalar_out[s],
            Distance(q, PointView(points.data() + s * dims, dims), metric));
      }
      // memcmp must not see the null data() of an empty vector.
      if (KernelAvx2Available() && count > 0) {
        std::vector<double> simd_out(count, -2);
        ScopedDispatch avx2(KernelDispatch::kAvx2);
        FilterKernel::BatchDistances(q, metric, points.data(), count,
                                     simd_out.data());
        EXPECT_EQ(std::memcmp(scalar_out.data(), simd_out.data(),
                              count * sizeof(double)),
                  0)
            << "dims=" << dims << " count=" << count;
      }
    }
  }
}

TEST(FilterKernelDispatch, OverridesSelectTheNamedKernel) {
  {
    ScopedDispatch scalar(KernelDispatch::kScalar);
    EXPECT_STREQ(ActiveKernelName(), "scalar");
    EXPECT_EQ(kernel_dispatch(), KernelDispatch::kScalar);
  }
  if (KernelAvx2Available()) {
    ScopedDispatch avx2(KernelDispatch::kAvx2);
    EXPECT_STREQ(ActiveKernelName(), "avx2");
  }
  EXPECT_EQ(kernel_dispatch(), KernelDispatch::kAuto);
}

TEST(FilterKernelAllocation, SteadyStateBatchesAreAllocationFree) {
  Rng rng(321);
  const size_t dims = 16;
  const unsigned bits = 8;
  const GridCase c = MakeCase(rng, dims, bits, 256);
  FilterKernel kernel;
  std::vector<double> lower(c.count), upper(c.count);
  std::vector<uint32_t> candidates;
  candidates.reserve(c.count);
  const Mbr window = c.mbr;  // intersects everything — worst-case appends
  std::vector<float> points(c.count * dims, 0.5f);
  // Warm-up: builds tables, sizes every scratch buffer, and touches the
  // metric registry statics.
  kernel.BindBounds(c.q, Metric::kL2, c.mbr, bits);
  kernel.Bounds(c.cells.data(), c.count, lower.data(), upper.data());
  kernel.SelectCandidates(c.cells.data(), c.count, 1e30, &candidates);
  kernel.BindMinDist(c.q, Metric::kLMax, c.mbr, bits);
  kernel.MinDistLowerBounds(c.cells.data(), c.count, lower.data());
  kernel.BindWindow(window, c.mbr, bits);
  candidates.clear();
  kernel.WindowCandidates(c.cells.data(), c.count, &candidates);
  FilterKernel::BatchDistances(c.q, Metric::kL2, points.data(), c.count,
                               lower.data());
  // Steady state: rebinds of the same shape plus batch calls over a
  // whole page must not allocate at all.
  g_allocations.store(0);
  g_counting.store(true);
  kernel.BindBounds(c.q, Metric::kL2, c.mbr, bits);
  kernel.Bounds(c.cells.data(), c.count, lower.data(), upper.data());
  candidates.clear();
  kernel.SelectCandidates(c.cells.data(), c.count, 1e30, &candidates);
  kernel.BindMinDist(c.q, Metric::kLMax, c.mbr, bits);
  kernel.MinDistLowerBounds(c.cells.data(), c.count, lower.data());
  kernel.BindWindow(window, c.mbr, bits);
  candidates.clear();
  kernel.WindowCandidates(c.cells.data(), c.count, &candidates);
  FilterKernel::BatchDistances(c.q, Metric::kL2, points.data(), c.count,
                               lower.data());
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "batch filter path allocated on the heap";
  EXPECT_EQ(candidates.size(), c.count);  // the window covers the grid
}

// ---------------------------------------------------------------------------
// End-to-end: forcing scalar vs AVX2 must leave query results
// bit-identical across every rewired structure.
// ---------------------------------------------------------------------------

class FilterKernelEndToEnd : public ::testing::Test {
 protected:
  FilterKernelEndToEnd() : disk_(DiskParameters{0.010, 0.002, 2048}) {}

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_F(FilterKernelEndToEnd, QueriesBitIdenticalAcrossKernels) {
  if (!KernelAvx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or unsupported CPU";
  }
  Dataset data = GenerateColorLike(1500, 16, 3);
  const Dataset queries = data.TakeTail(8);
  auto tree = IqTree::Build(data, storage_, "t", disk_, IqTree::Options{});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  VaFile::Options va_options;
  va_options.bits_per_dim = 6;
  auto va = VaFile::Build(data, storage_, "va", disk_, va_options);
  ASSERT_TRUE(va.ok()) << va.status().ToString();
  auto scan = SeqScan::Build(data, storage_, "s", disk_, SeqScan::Options{});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  const double radius = 0.9;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<std::vector<Neighbor>> knn(2), range(2);
    // The IQ-tree's kNN and range QueryStats: the directory sweep and
    // the page filter decide which pages and cells are touched, so
    // these match only if every MINDIST does.
    std::vector<std::vector<IqTree::QueryStats>> tree_stats(2);
    int slot = 0;
    for (KernelDispatch d :
         {KernelDispatch::kScalar, KernelDispatch::kAvx2}) {
      ScopedDispatch dispatch(d);
      auto t_knn = (*tree)->KNearestNeighbors(queries[qi], 10);
      tree_stats[slot].push_back((*tree)->last_query_stats());
      auto v_knn = (*va)->KNearestNeighbors(queries[qi], 10);
      auto s_knn = (*scan)->KNearestNeighbors(queries[qi], 10);
      auto t_range = (*tree)->RangeSearch(queries[qi], radius);
      tree_stats[slot].push_back((*tree)->last_query_stats());
      auto v_range = (*va)->RangeSearch(queries[qi], radius);
      auto s_range = (*scan)->RangeSearch(queries[qi], radius);
      ASSERT_TRUE(t_knn.ok() && v_knn.ok() && s_knn.ok());
      ASSERT_TRUE(t_range.ok() && v_range.ok() && s_range.ok());
      knn[slot].insert(knn[slot].end(), t_knn->begin(), t_knn->end());
      knn[slot].insert(knn[slot].end(), v_knn->begin(), v_knn->end());
      knn[slot].insert(knn[slot].end(), s_knn->begin(), s_knn->end());
      range[slot].insert(range[slot].end(), t_range->begin(), t_range->end());
      range[slot].insert(range[slot].end(), v_range->begin(), v_range->end());
      range[slot].insert(range[slot].end(), s_range->begin(), s_range->end());
      ++slot;
    }
    ASSERT_EQ(knn[0].size(), knn[1].size()) << "query " << qi;
    for (size_t i = 0; i < knn[0].size(); ++i) {
      EXPECT_EQ(knn[0][i].id, knn[1][i].id) << "query " << qi;
      EXPECT_BITEQ(knn[0][i].distance, knn[1][i].distance) << "query " << qi;
    }
    ASSERT_EQ(range[0].size(), range[1].size()) << "query " << qi;
    for (size_t i = 0; i < range[0].size(); ++i) {
      EXPECT_EQ(range[0][i].id, range[1][i].id) << "query " << qi;
      EXPECT_BITEQ(range[0][i].distance, range[1][i].distance)
          << "query " << qi;
    }
    for (size_t i = 0; i < tree_stats[0].size(); ++i) {
      const IqTree::QueryStats& a = tree_stats[0][i];
      const IqTree::QueryStats& b = tree_stats[1][i];
      EXPECT_EQ(a.pages_decoded, b.pages_decoded) << "query " << qi;
      EXPECT_EQ(a.blocks_transferred, b.blocks_transferred) << "query " << qi;
      EXPECT_EQ(a.batches, b.batches) << "query " << qi;
      EXPECT_EQ(a.refinements, b.refinements) << "query " << qi;
      EXPECT_EQ(a.cells_enqueued, b.cells_enqueued) << "query " << qi;
    }
  }
}

}  // namespace
}  // namespace iq
