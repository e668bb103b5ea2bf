// Micro-benchmark: CPU cost of the time-optimized NN search (§2.1 page
// batching by §2.2 access probability) against the standard
// one-page-per-access search, 10-NN on a CAD-like index.
//
// Both variants answer the same queries with the same results; the
// optimized one plans batches, which saves simulated I/O but costs CPU
// in the planner. The gated rows:
//   cpu_ratio        optimized / standard CPU ms per query (the ratio
//                    cancels the host's absolute speed; lower is better)
//   io_s_optimized   simulated disk seconds per query, optimized access
//   io_s_standard    simulated disk seconds per query, standard access
// The io_s rows are deterministic for a given dataset and disk model,
// so they go into a separate bench (micro_planner_io) that CI gates
// tightly; the CPU ratio rides on the scheduler and is gated wide.
//
//   build/bench/micro_planner            # CAD 50k, 200 queries
//   build/bench/micro_planner --full     # CAD 200k
//
// CPU time is the thread's CPU clock, so time the process spends
// descheduled on a busy host does not count; each variant reports the
// minimum over several repetitions of the whole query set.

#include <time.h>

#include <algorithm>
#include <limits>

#include "bench_common.h"
#include "core/iq_tree.h"
#include "data/generators.h"

namespace iq {
namespace {

constexpr size_t kDims = 16;
constexpr size_t kQueries = 200;
constexpr size_t kK = 10;
constexpr int kRepeats = 7;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Variant {
  double cpu_ms = std::numeric_limits<double>::infinity();  // per query
  double io_s = 0.0;                                         // per query
};

/// One pass over all queries; returns CPU seconds. Every query starts
/// from a fresh disk head of its own, as an isolated query would.
double RunPass(const IqTree& tree, const Dataset& queries, bool optimized) {
  IqSearchOptions search;
  search.optimized_access = optimized;
  const double start = ThreadCpuSeconds();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = tree.KNearestNeighbors(queries[i], kK, search);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  return ThreadCpuSeconds() - start;
}

}  // namespace
}  // namespace iq

int main(int argc, char** argv) {
  using namespace iq;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const size_t n = args.Scale(200000, 50000);

  Dataset data = GenerateCadLike(n + kQueries, kDims, args.seed);
  const Dataset queries = data.TakeTail(kQueries);
  MemoryStorage storage;
  DiskModel disk(args.disk);
  IqTree::Options options;
  options.optimize_for_k = kK;
  auto tree = IqTree::Build(data, storage, "planner", disk, options);
  if (!tree.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 tree.status().ToString().c_str());
    return 1;
  }

  Variant standard, optimized;
  // Simulated I/O: one pass each, deterministic.
  for (bool opt : {false, true}) {
    Variant& v = opt ? optimized : standard;
    disk.ResetStats();
    RunPass(**tree, queries, opt);
    v.io_s = disk.stats().io_time_s / static_cast<double>(kQueries);
  }
  // CPU: alternate the variants so both see the same machine state.
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (bool opt : {false, true}) {
      Variant& v = opt ? optimized : standard;
      const double ms = 1e3 * RunPass(**tree, queries, opt) /
                        static_cast<double>(kQueries);
      v.cpu_ms = std::min(v.cpu_ms, ms);
    }
  }

  const double ratio = optimized.cpu_ms / standard.cpu_ms;
  std::printf(
      "10-NN on CAD-like N=%zu d=%zu, %zu pages, %zu queries, min of %d "
      "repeats\n\n",
      n, kDims, (*tree)->directory().size(), kQueries, kRepeats);
  Table table({"access", "CPU ms/query", "sim io_s/query"});
  table.AddRow({"standard", Table::Num(standard.cpu_ms, 3),
                Table::Num(standard.io_s, 4)});
  table.AddRow({"optimized", Table::Num(optimized.cpu_ms, 3),
                Table::Num(optimized.io_s, 4)});
  table.Print(std::cout);
  std::printf("\noptimized/standard CPU ratio: %.2f\n", ratio);

  const double x = static_cast<double>(n);
  bench::JsonReport cpu("micro_planner");
  cpu.Add("cpu_ratio", x, ratio);
  cpu.Print();
  bench::JsonReport io("micro_planner_io");
  io.Add("io_s_optimized", x, optimized.io_s);
  io.Add("io_s_standard", x, standard.io_s);
  io.Print();
  return 0;
}
