// Batch-query throughput of the concurrent query engine at 1/2/4/8
// threads — the scaling baseline future PRs measure against. The tree
// and disk model are shared across workers, so this exercises exactly
// the synchronized state the thread-safety annotations guard. Items
// processed = queries answered; compare items_per_second across the
// thread counts to read the scaling curve (on a single-core host the
// curve is flat — the point is the baseline, not the speedup).

#include <cstdio>
#include <cstdlib>
#include <memory>

#include <benchmark/benchmark.h>

#include "concurrency/parallel_query_runner.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"

namespace iq {
namespace {

constexpr uint32_t kBlockSize = 2048;
constexpr size_t kPoints = 8000;
constexpr size_t kQueries = 64;
constexpr size_t kDims = 8;
constexpr size_t kKnn = 5;

/// One shared read-only tree for every benchmark iteration (building
/// per iteration would swamp the query timing).
struct SharedTree {
  MemoryStorage storage;
  Dataset queries;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<IqTree> tree;

  SharedTree() {
    Dataset data = GenerateCadLike(kPoints + kQueries, kDims, 42);
    queries = data.TakeTail(kQueries);
    disk = std::make_unique<DiskModel>(
        DiskParameters{0.010, 0.002, kBlockSize});
    auto built = IqTree::Build(data, storage, "bench", *disk, {});
    if (!built.ok()) {
      std::fprintf(stderr, "tree build failed: %s\n",
                   built.status().ToString().c_str());
      std::abort();
    }
    tree = std::move(built).value();
  }
};

SharedTree& Tree() {
  static SharedTree shared;
  return shared;
}

void BM_ParallelKnnBatch(benchmark::State& state) {
  SharedTree& shared = Tree();
  const size_t threads = static_cast<size_t>(state.range(0));
  ParallelQueryRunner runner(*shared.tree, threads);
  for (auto _ : state) {
    auto results = runner.KnnBatch(shared.queries, kKnn, {});
    if (!results.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kQueries));
}
BENCHMARK(BM_ParallelKnnBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelRangeBatch(benchmark::State& state) {
  SharedTree& shared = Tree();
  const size_t threads = static_cast<size_t>(state.range(0));
  ParallelQueryRunner runner(*shared.tree, threads);
  for (auto _ : state) {
    auto results = runner.RangeBatch(shared.queries, 0.15);
    if (!results.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kQueries));
}
BENCHMARK(BM_ParallelRangeBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iq

BENCHMARK_MAIN();
