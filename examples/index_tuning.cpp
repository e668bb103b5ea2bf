// Index tuning walkthrough: how the cost model, the fractal dimension
// and the disk parameters interact. Compares the optimizer's chosen
// solution against fixed quantization rates on a correlated workload,
// and shows what the cost model predicted versus what the simulated
// disk measured — the workflow a practitioner would use to validate the
// model on their own data.

#include <cstdio>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "fractal/fractal_dimension.h"
#include "harness/experiment.h"
#include "io/storage.h"

int main() {
  using namespace iq;
  const size_t kPoints = 30000;
  const size_t kDims = 16;
  const size_t kQueries = 20;

  Dataset data = GenerateCadLike(kPoints + kQueries, kDims, 21);
  const Dataset queries = data.TakeTail(kQueries);

  const FractalEstimate fractal =
      EstimateCorrelationDimension(data.data(), data.size(), kDims);
  std::printf("workload: CAD-like, %zu points, %zu dims\n", kPoints, kDims);
  std::printf("estimated correlation dimension D_F = %.2f (fit r^2 = "
              "%.3f over %u scales)\n\n",
              fractal.dimension, fractal.fit_r2, fractal.levels_used);

  const DiskParameters disk;
  Experiment experiment(data, queries, disk);

  std::printf("%-22s %14s\n", "configuration", "avg query (s)");
  for (unsigned g : {1u, 4u, 16u, 32u}) {
    auto fixed = experiment.RunIqTree(true, true, g);
    if (!fixed.ok()) return 1;
    std::printf("fixed g = %-14u %14.4f\n", g, fixed->avg_query_time_s);
  }
  auto optimal = experiment.RunIqTree();
  if (!optimal.ok()) return 1;
  std::printf("%-22s %14.4f\n", "cost-model optimal",
              optimal->avg_query_time_s);

  // Model prediction vs measurement for the optimal build.
  MemoryStorage storage;
  DiskModel disk_model(disk);
  auto tree = IqTree::Build(data, storage, "tuned", disk_model, {});
  if (!tree.ok()) return 1;
  disk_model.ResetStats();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!(*tree)->NearestNeighbor(queries[qi]).ok()) return 1;
  }
  const double measured =
      disk_model.stats().io_time_s / static_cast<double>(queries.size());
  std::printf(
      "\ncost model predicted %.4f s/query; simulated disk measured "
      "%.4f s/query\n",
      (*tree)->build_stats().expected_query_cost_s, measured);
  std::printf("pages per level (g = 1,2,4,8,16,32):");
  for (size_t count : (*tree)->build_stats().pages_per_level) {
    std::printf(" %zu", count);
  }
  std::printf("\n");
  return 0;
}
