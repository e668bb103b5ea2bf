// Micro-benchmark: wall-clock throughput of the page-filter kernels
// (quant/filter_kernel.h) against the pre-kernel per-point
// CellBox+MinDist loop, per dimensionality and per quantization rate,
// of a whole quantized page (decode + table bind + filter) against the
// same loop, of the directory MINDIST kernel (FilterKernel::BoxMinDists)
// against a MinDist loop over the same boxes as Mbr objects, and of the
// exact-point distance kernel (FilterKernel::BatchDistances) against a
// Distance() loop over the same points, and of a whole IQ-tree 10-NN
// query against a BatchDistances pass over the same points.
//
// Unlike the figure benches this measures real CPU time, so the IQBENCH
// rows are *relative costs* (kernel ns / reference ns, lower is
// better): the ratio cancels the host's absolute speed and stays
// gateable across machines (tools/bench_aggregate --suite filter,
// wide tolerance for scheduler jitter). Absolute points/sec appear in
// the human table only (docs/perf_kernels.md quotes them).

#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "bench_common.h"
#include "common/random.h"
#include "core/format.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "quant/filter_kernel.h"
#include "quant/grid_quantizer.h"

namespace iq {
namespace {

constexpr size_t kPagePoints = 1024;

double g_sink = 0.0;  // defeats dead-code elimination across timed bodies

/// One benchmark instance: a random grid, query, and page of encoded
/// points for the given shape.
struct Workload {
  Mbr mbr;
  std::vector<float> q;
  std::vector<uint32_t> cells;

  Workload(Rng& rng, size_t dims, unsigned bits,
           size_t points = kPagePoints) {
    std::vector<float> lb(dims), ub(dims);
    for (size_t i = 0; i < dims; ++i) {
      lb[i] = static_cast<float>(rng.Uniform(-1, 0));
      ub[i] = static_cast<float>(rng.Uniform(0, 1));
    }
    mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
    q.resize(dims);
    for (size_t i = 0; i < dims; ++i) {
      q[i] = static_cast<float>(rng.Uniform(-1.5, 1.5));
    }
    cells.resize(points * dims);
    const uint64_t per_dim = uint64_t{1} << bits;
    for (auto& c : cells) c = static_cast<uint32_t>(rng.Index(per_dim));
  }
};

/// Runs `body` (which filters one whole page of `points` points) for
/// `budget_ms` of wall clock split over several repetitions and returns
/// the *minimum* nanoseconds per point across them — the min is the
/// stable statistic for a micro-bench (every source of noise only ever
/// adds time), which keeps the gated ratios reproducible run to run.
template <typename Body>
double MeasureNsPerPoint(double budget_ms, const Body& body,
                         size_t points = kPagePoints) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 4;
  body();  // warm-up: tables, caches, branch predictors
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    size_t pages = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    do {
      body();
      ++pages;
      now = Clock::now();
    } while (std::chrono::duration<double, std::milli>(now - start).count() <
             budget_ms / kReps);
    const double ns =
        std::chrono::duration<double, std::nano>(now - start).count();
    best = std::min(best, ns / (static_cast<double>(pages) * points));
  }
  return best;
}

struct KernelTimes {
  double ref_ns;     // per-point CellBox + MinDist (the old filter loop)
  double scalar_ns;  // FilterKernel, forced scalar
  double simd_ns;    // FilterKernel, AVX2 (0 when unavailable)
};

/// The pre-kernel filter loop over `points` points of `w`: a cell-box
/// Mbr and a MinDist per point.
double ReferenceNsPerPoint(const Workload& w, unsigned bits, size_t points,
                           double budget_ms) {
  const size_t dims = w.q.size();
  const GridQuantizer quantizer(w.mbr, bits);
  std::vector<uint32_t> point_cells(dims);
  return MeasureNsPerPoint(
      budget_ms,
      [&] {
        double acc = 0;
        for (size_t s = 0; s < points; ++s) {
          std::copy(w.cells.begin() + static_cast<ptrdiff_t>(s * dims),
                    w.cells.begin() + static_cast<ptrdiff_t>((s + 1) * dims),
                    point_cells.begin());
          acc += MinDist(w.q, quantizer.CellBox(point_cells), Metric::kL2);
        }
        g_sink += acc;
      },
      points);
}

KernelTimes TimeConfig(Rng& rng, size_t dims, unsigned bits,
                       double budget_ms) {
  const Workload w(rng, dims, bits);
  KernelTimes t{};

  t.ref_ns = ReferenceNsPerPoint(w, bits, kPagePoints, budget_ms);

  FilterKernel kernel;
  kernel.BindMinDist(w.q, Metric::kL2, w.mbr, bits);
  std::vector<double> out(kPagePoints);
  SetKernelDispatch(KernelDispatch::kScalar);
  t.scalar_ns = MeasureNsPerPoint(budget_ms, [&] {
    kernel.MinDistLowerBounds(w.cells.data(), kPagePoints, out.data());
    g_sink += out[0];
  });
  if (KernelAvx2Available()) {
    SetKernelDispatch(KernelDispatch::kAvx2);
    t.simd_ns = MeasureNsPerPoint(budget_ms, [&] {
      kernel.MinDistLowerBounds(w.cells.data(), kPagePoints, out.data());
      g_sink += out[0];
    });
  }
  SetKernelDispatch(KernelDispatch::kAuto);
  return t;
}

/// Whole quantized page at d = 16: DecodeCells + BindMinDist +
/// MinDistLowerBounds on an encoded page filled to capacity in the
/// default block — what the IQ-tree pays per loaded page — against the
/// reference loop over the same points. Unlike TimeConfig, which binds
/// once and filters pre-decoded cells, this row sees the unpack and the
/// table bind.
KernelTimes TimePageConfig(Rng& rng, unsigned bits, double budget_ms) {
  constexpr size_t kDims = 16;
  const uint32_t block = DiskParameters{}.block_size;
  const size_t count = QuantPageCapacity(kDims, bits, block);
  const Workload w(rng, kDims, bits, count);
  const QuantPageCodec codec(kDims, block);
  std::vector<uint8_t> page(block);
  std::vector<uint32_t> cells;
  if (!codec.EncodeCells(bits, w.cells, page.data()).ok() ||
      !codec.DecodeCells(page.data(), &cells).ok() || cells != w.cells) {
    std::fprintf(stderr, "micro_filter: page round trip failed at g=%u\n",
                 bits);
    std::exit(1);
  }
  KernelTimes t{};
  t.ref_ns = ReferenceNsPerPoint(w, bits, count, budget_ms);
  FilterKernel kernel;
  std::vector<double> out(count);
  const auto page_body = [&] {
    (void)codec.DecodeCells(page.data(), &cells);
    kernel.BindMinDist(w.q, Metric::kL2, w.mbr, bits);
    kernel.MinDistLowerBounds(cells.data(), count, out.data());
    g_sink += out[0];
  };
  SetKernelDispatch(KernelDispatch::kScalar);
  t.scalar_ns = MeasureNsPerPoint(budget_ms, page_body, count);
  if (KernelAvx2Available()) {
    SetKernelDispatch(KernelDispatch::kAvx2);
    t.simd_ns = MeasureNsPerPoint(budget_ms, page_body, count);
  }
  SetKernelDispatch(KernelDispatch::kAuto);
  return t;
}

/// The directory reference loop: geom::MinDist's L2 arithmetic over
/// `boxes`, as the bench's own copy. MinDist branches per dimension, and
/// how well those branches predict depends on where the linker puts
/// the code, so a library MinDist moved with every unrelated change to
/// the library (docs/perf_kernels.md). This copy is never inlined and
/// starts on a 64-byte boundary, so its layout is the same in every
/// link.
__attribute__((noinline, aligned(64))) void ReferenceBoxMinDists(
    const std::vector<float>& q, const std::vector<Mbr>& boxes,
    double* out) {
  for (size_t j = 0; j < boxes.size(); ++j) {
    const Mbr& box = boxes[j];
    double s = 0.0;
    for (size_t i = 0; i < q.size(); ++i) {
      double diff = 0.0;
      if (q[i] < box.lb(i)) {
        diff = box.lb(i) - static_cast<double>(q[i]);
      } else if (q[i] > box.ub(i)) {
        diff = static_cast<double>(q[i]) - box.ub(i);
      }
      s += diff * diff;
    }
    out[j] = std::sqrt(s);
  }
}

/// Directory MINDIST: kPagePoints boxes as Mbr objects (the reference
/// MinDist loop) and dimension-major (the kernel), one query.
KernelTimes TimeBoxConfig(Rng& rng, size_t dims, double budget_ms) {
  const size_t stride = kPagePoints;
  std::vector<Mbr> boxes;
  std::vector<float> lo(dims * stride), hi(dims * stride);
  for (size_t j = 0; j < kPagePoints; ++j) {
    std::vector<float> lb(dims), ub(dims);
    for (size_t i = 0; i < dims; ++i) {
      const double a = rng.Uniform(0, 1), b = rng.Uniform(0, 1);
      lb[i] = static_cast<float>(std::min(a, b));
      ub[i] = static_cast<float>(std::max(a, b));
      lo[i * stride + j] = lb[i];
      hi[i * stride + j] = ub[i];
    }
    boxes.push_back(Mbr::FromBounds(std::move(lb), std::move(ub)));
  }
  std::vector<float> q(dims);
  for (float& x : q) x = static_cast<float>(rng.Uniform(-0.25, 1.25));
  KernelTimes t{};
  std::vector<double> out(kPagePoints);
  t.ref_ns = MeasureNsPerPoint(budget_ms, [&] {
    ReferenceBoxMinDists(q, boxes, out.data());
    g_sink += out[0];
  });
  SetKernelDispatch(KernelDispatch::kScalar);
  t.scalar_ns = MeasureNsPerPoint(budget_ms, [&] {
    FilterKernel::BoxMinDists(q, Metric::kL2, lo.data(), hi.data(), stride,
                              kPagePoints, out.data());
    g_sink += out[0];
  });
  if (KernelAvx2Available()) {
    SetKernelDispatch(KernelDispatch::kAvx2);
    t.simd_ns = MeasureNsPerPoint(budget_ms, [&] {
      FilterKernel::BoxMinDists(q, Metric::kL2, lo.data(), hi.data(), stride,
                                kPagePoints, out.data());
      g_sink += out[0];
    });
  }
  SetKernelDispatch(KernelDispatch::kAuto);
  return t;
}

/// Exact-point distances: kPagePoints point-major float points (an
/// exact page's layout), one query; the reference is Distance() per
/// point.
KernelTimes TimeDistConfig(Rng& rng, size_t dims, double budget_ms) {
  std::vector<float> points(kPagePoints * dims);
  for (float& x : points) x = static_cast<float>(rng.Uniform(0, 1));
  std::vector<float> q(dims);
  for (float& x : q) x = static_cast<float>(rng.Uniform(0, 1));
  KernelTimes t{};
  std::vector<double> out(kPagePoints);
  t.ref_ns = MeasureNsPerPoint(budget_ms, [&] {
    for (size_t s = 0; s < kPagePoints; ++s) {
      out[s] = Distance(q, PointView(points.data() + s * dims, dims),
                        Metric::kL2);
    }
    g_sink += out[0];
  });
  SetKernelDispatch(KernelDispatch::kScalar);
  t.scalar_ns = MeasureNsPerPoint(budget_ms, [&] {
    FilterKernel::BatchDistances(q, Metric::kL2, points.data(), kPagePoints,
                                 out.data());
    g_sink += out[0];
  });
  if (KernelAvx2Available()) {
    SetKernelDispatch(KernelDispatch::kAvx2);
    t.simd_ns = MeasureNsPerPoint(budget_ms, [&] {
      FilterKernel::BatchDistances(q, Metric::kL2, points.data(),
                                   kPagePoints, out.data());
      g_sink += out[0];
    });
  }
  SetKernelDispatch(KernelDispatch::kAuto);
  return t;
}

/// CPU of one exact 10-NN query on an in-memory IQ-tree over uniform
/// 16-d points, every page stored at g = 8 (directory scan, §2.1
/// planning, page decode and filter, the HS cell queue, refinements;
/// the disk is simulated), as a multiple of the reference loop over the
/// same points: one FilterKernel::BatchDistances pass per query, the
/// distances a scan computes. Both sides run the same queries.
double TimeKnnRelCost(double budget_ms) {
  constexpr size_t kDims = 16;
  constexpr size_t kPoints = 20000;
  constexpr size_t kQueries = 16;
  Dataset data = GenerateUniform(kPoints + kQueries, kDims, 11);
  const Dataset queries = data.TakeTail(kQueries);
  MemoryStorage storage;
  DiskModel disk{DiskParameters{}};
  IqTree::Options options;
  options.fixed_quant_bits = 8;
  options.fractal_dimension = kDims;  // uniform data: D_F = d
  auto tree = IqTree::Build(data, storage, "knn", disk, options);
  if (!tree.ok()) {
    std::fprintf(stderr, "micro_filter: kNN tree build failed: %s\n",
                 tree.status().ToString().c_str());
    std::exit(1);
  }
  const double knn_ns = MeasureNsPerPoint(
      budget_ms,
      [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto got = (*tree)->KNearestNeighbors(queries[i], 10);
          if (!got.ok() || got->empty()) std::exit(1);
          g_sink += got->back().distance;
        }
      },
      kQueries);
  std::vector<double> out(kPoints);
  const double ref_ns = MeasureNsPerPoint(
      budget_ms,
      [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          FilterKernel::BatchDistances(queries[i], Metric::kL2, data.data(),
                                       kPoints, out.data());
          g_sink += out[i];
        }
      },
      kQueries);
  std::printf("10-NN query, uniform d=16 g=8, %zu points: %.1f us/query, "
              "reference %.1f us/query\n",
              kPoints, knn_ns / 1e3, ref_ns / 1e3);
  return knn_ns / ref_ns;
}

double MptsPerSec(double ns_per_point) { return 1e3 / ns_per_point; }

void Report(Table& table, bench::JsonReport& report, const char* sweep,
            double x, const std::string& config, const KernelTimes& t) {
  table.AddRow({config, Table::Num(MptsPerSec(t.ref_ns), 1),
                Table::Num(MptsPerSec(t.scalar_ns), 1),
                t.simd_ns > 0 ? Table::Num(MptsPerSec(t.simd_ns), 1) : "-",
                Table::Num(t.ref_ns / t.scalar_ns, 2),
                t.simd_ns > 0 ? Table::Num(t.ref_ns / t.simd_ns, 2) : "-"});
  // Gated rows: relative cost of the kernel vs the reference loop on
  // the same host (lower is better; > baseline * tolerance fails CI).
  char series[48];
  std::snprintf(series, sizeof(series), "%s_relcost_scalar", sweep);
  report.Add(series, x, t.scalar_ns / t.ref_ns);
  if (t.simd_ns > 0) {
    std::snprintf(series, sizeof(series), "%s_relcost_simd", sweep);
    report.Add(series, x, t.simd_ns / t.ref_ns);
  }
}

}  // namespace
}  // namespace iq

int main(int argc, char** argv) {
  using namespace iq;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  // --full lengthens each measurement; the default keeps the whole
  // sweep under ~10 s on one core.
  const double budget_ms = args.full ? 200.0 : 40.0;
  Rng rng(args.seed);

  std::printf(
      "Filter-kernel throughput, %zu-point pages (MINDIST lower bounds, "
      "L2)\nactive kernel for kAuto dispatch: %s\n\n",
      kPagePoints, ActiveKernelName());
  Table table({"config", "ref Mpts/s", "scalar Mpts/s", "simd Mpts/s",
               "scalar/ref", "simd/ref"});
  bench::JsonReport report("micro_filter");

  // Dimensionality sweep at the IQ-tree's most common rate (g = 8).
  for (size_t dims : {2u, 8u, 16u, 64u}) {
    const KernelTimes t = TimeConfig(rng, dims, 8, budget_ms);
    Report(table, report, "d", static_cast<double>(dims),
           "d=" + std::to_string(dims) + " g=8", t);
  }
  // Quantization-rate sweep at d = 16; g = 16 exceeds the table cap
  // (FilterKernel::kMaxTableBits) and exercises the direct path.
  for (unsigned bits : {1u, 2u, 4u, 8u, 12u, 16u}) {
    const KernelTimes t = TimeConfig(rng, 16, bits, budget_ms);
    Report(table, report, "g", static_cast<double>(bits),
           "d=16 g=" + std::to_string(bits), t);
  }
  // Directory MINDIST sweep: BoxMinDists over dimension-major boxes
  // against MinDist over Mbr objects (points = boxes in the columns).
  for (size_t dims : {2u, 8u, 16u, 64u}) {
    const KernelTimes t = TimeBoxConfig(rng, dims, budget_ms);
    Report(table, report, "box", static_cast<double>(dims),
           "d=" + std::to_string(dims) + " boxes", t);
  }
  // Exact-page distance sweep: BatchDistances against a Distance()
  // loop over the same points.
  for (size_t dims : {2u, 8u, 16u, 64u}) {
    const KernelTimes t = TimeDistConfig(rng, dims, budget_ms);
    Report(table, report, "dist", static_cast<double>(dims),
           "d=" + std::to_string(dims) + " points", t);
  }
  // Whole-page sweep at d = 16: decode + bind + filter per full page.
  // It runs last because it draws from the shared rng: the sweeps above
  // keep the data their committed baselines were measured on.
  for (unsigned bits : {1u, 2u, 4u, 8u, 16u}) {
    const KernelTimes t = TimePageConfig(rng, bits, budget_ms);
    Report(table, report, "page", static_cast<double>(bits),
           "d=16 g=" + std::to_string(bits) + " page", t);
  }

  // Whole kNN query against a scan's distance pass (x = k).
  report.Add("knn_relcost", 10, TimeKnnRelCost(4 * budget_ms));

  table.Print(std::cout);
  report.Print();
  std::printf(
      "\nExpected: the table kernel stays well above the reference loop\n"
      "(>= 3x points/sec for d >= 16 — the reference allocates a cell-box\n"
      "Mbr per point); the AVX2 column adds on top of that. For the\n"
      "directory boxes the reference is a plain MinDist loop: the scalar\n"
      "kernel is about at par, the AVX2 kernel several times faster.\n"
      "For exact points the scalar kernel is the reference loop's\n"
      "arithmetic, so it sits near 1; the AVX2 kernel is below it.\n"
      "A whole page (unpack + table bind + filter) stays below the\n"
      "reference loop at every g, g = 16 (direct path) included.\n"
      "A 10-NN query costs a small multiple of one scan distance pass.\n"
      "Sink=%g\n",
      g_sink == 12345.0 ? 1.0 : 0.0);
  return 0;
}
