// Micro-benchmark: the per-query report path against the micro_filter
// hot path, enforcing the observability overhead budget
// (docs/observability.md, "Overhead"): what every finished query does
// to report itself — fill its IqQueryStats sink and publish the stats
// (IqTree::PublishQueryStats: the locked last_query_stats() copy plus
// the registry counter adds) — must cost <= 2% of one page's filter
// work. The bench *fails* (exit 1) when the measured overhead exceeds
// the budget, so the bench CI leg is the enforcement point, not just a
// trajectory log.
//
// The reference body is micro_filter's per-point CellBox+MinDist page
// loop — the page-processing cost a real query pays. One report per
// page is far denser than production (one report per query, which
// decodes many pages), so a pass here bounds the real overhead from
// above.
//
// IQBENCH series (wall-clock, so the gate tolerance is wide):
//   report_ns     ns per query report (tight loop, min over reps)
//   ref_page_ns   ns per 1024-point reference filter page
//   overhead_pct  100 * report_ns / ref_page_ns (one report per page)

#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "geom/metrics.h"
#include "io/storage.h"
#include "quant/grid_quantizer.h"

namespace iq {
namespace {

constexpr size_t kPagePoints = 1024;
constexpr size_t kDims = 16;
constexpr unsigned kBits = 8;
constexpr double kOverheadBudgetPct = 2.0;

double g_sink = 0.0;  // defeats dead-code elimination across timed bodies

/// Runs `body` for `budget_ms` of wall clock split over several
/// repetitions and returns the *minimum* nanoseconds per call across
/// them (the min is the stable micro-bench statistic: noise only ever
/// adds time).
template <typename Body>
double MeasureNs(double budget_ms, const Body& body) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 4;
  body();  // warm-up: tables, caches, branch predictors
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    size_t calls = 0;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    do {
      body();
      ++calls;
      now = Clock::now();
    } while (std::chrono::duration<double, std::milli>(now - start).count() <
             budget_ms / kReps);
    const double ns =
        std::chrono::duration<double, std::nano>(now - start).count();
    best = std::min(best, ns / static_cast<double>(calls));
  }
  return best;
}

int Main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const double budget_ms = 80.0;

  // The micro_filter reference body: one page of quantized points,
  // filtered per point through CellBox + MinDist.
  Rng rng(args.seed);
  std::vector<float> lb(kDims), ub(kDims), q(kDims);
  for (size_t i = 0; i < kDims; ++i) {
    lb[i] = static_cast<float>(rng.Uniform(-1, 0));
    ub[i] = static_cast<float>(rng.Uniform(0, 1));
    q[i] = static_cast<float>(rng.Uniform(-1.5, 1.5));
  }
  const Mbr mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
  const GridQuantizer quantizer(mbr, kBits);
  std::vector<uint32_t> cells(kPagePoints * kDims);
  const uint64_t per_dim = uint64_t{1} << kBits;
  for (auto& c : cells) c = static_cast<uint32_t>(rng.Index(per_dim));

  std::vector<uint32_t> point_cells(kDims);
  const double ref_page_ns = MeasureNs(budget_ms, [&] {
    double acc = 0;
    for (size_t s = 0; s < kPagePoints; ++s) {
      std::copy(cells.begin() + static_cast<ptrdiff_t>(s * kDims),
                cells.begin() + static_cast<ptrdiff_t>((s + 1) * kDims),
                point_cells.begin());
      acc += MinDist(q, quantizer.CellBox(point_cells), Metric::kL2);
    }
    g_sink += acc;
  });

  // A small tree to publish into, and the stats of a typical query.
  MemoryStorage storage;
  DiskModel disk;
  auto tree = IqTree::Build(GenerateUniform(512, 4, args.seed), storage,
                            "obs", disk, {});
  if (!tree.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 tree.status().ToString().c_str());
    return 1;
  }
  IqQueryStats stats;
  stats.pages_decoded = 12;
  stats.blocks_transferred = 14;
  stats.batches = 5;
  stats.refinements = 9;
  stats.cells_enqueued = 180;
  DiskHead head;
  head.stats.seeks = 6;
  head.stats.blocks_read = 23;
  head.stats.io_time_s = 0.106;
  IqQueryStats sink;
  const double report_ns = MeasureNs(budget_ms, [&] {
    stats.io = head.stats;
    sink = stats;
    (*tree)->PublishQueryStats(stats);
    ++head.stats.blocks_read;
  });
  g_sink += static_cast<double>(sink.io.blocks_read);

  const double overhead_pct =
      ref_page_ns > 0 ? 100.0 * report_ns / ref_page_ns : 0.0;

  std::printf("%14s %14s %14s\n", "report_ns", "ref_page_ns",
              "overhead_pct");
  std::printf("%14.2f %14.2f %14.4f\n", report_ns, ref_page_ns,
              overhead_pct);

  bench::JsonReport report("micro_obs");
  report.Add("report_ns", 1, report_ns);
  report.Add("ref_page_ns", 1, ref_page_ns);
  report.Add("overhead_pct", 1, overhead_pct);
  report.Print();

  // The enforcement point of the overhead budget.
  if (overhead_pct > kOverheadBudgetPct) {
    std::fprintf(stderr,
                 "query-report overhead %.3f%% exceeds the %.1f%% "
                 "budget (report=%.1fns, page=%.1fns)\n",
                 overhead_pct, kOverheadBudgetPct, report_ns, ref_page_ns);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace iq

int main(int argc, char** argv) { return iq::Main(argc, argv); }
