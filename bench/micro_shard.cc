// Micro-benchmark: scatter-gather kNN over the sharded query engine
// (src/shard/) as the shard count grows, on clustered data under a
// rank partition so manifest-MBR pruning has real work to do.
//
// The gated IQBENCH series are *simulated* disk seconds and pruning
// fractions, plus the simulated blocks the bulk load writes — all
// deterministic functions of the dataset and the algorithms,
// independent of host speed, so the trajectory gate
// (tools/bench_aggregate --suite shard) can run tight. Wall-clock load
// seconds and queries/sec are printed for humans only.
//
//   io_s_sum    mean per-query sum of per-shard simulated I/O seconds
//               (total work; flat-ish once pruning saturates)
//   io_s_max    mean per-query max over shards (critical path of a
//               perfectly parallel gather; falls with the shard count)
//   pruned_frac fraction of (query, shard) pairs skipped by pruning
//   load_blocks_written
//               blocks the loader's Add...Finish writes (the delta of
//               the iq_disk_blocks_written_total registry counter)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.h"
#include "data/generators.h"
#include "io/storage.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"

namespace iq {
namespace {

constexpr size_t kDims = 8;
constexpr size_t kKnn = 10;
constexpr size_t kThreads = 4;

int Main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const size_t n = args.Scale(500000, 20000);
  const size_t num_queries = args.queries;

  Dataset data = GenerateClustered(n + num_queries, kDims, args.seed, {});
  Dataset queries = data.TakeTail(num_queries);

  bench::JsonReport report("micro_shard");
  const obs::Counter* blocks_written =
      obs::MetricRegistry::Global().GetCounter(
          obs::metric::kDiskBlocksWrittenTotal);
  std::printf("%8s %12s %12s %12s %12s %12s %12s\n", "shards", "io_s_sum",
              "io_s_max", "pruned_frac", "load_blocks", "load_wall_s",
              "wall_qps");

  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    MemoryStorage storage;
    ShardedBulkLoader::Options loader_options;
    loader_options.num_shards = num_shards;
    loader_options.plan = ShardPlan::kRankPartition;
    loader_options.disk = args.disk;
    const uint64_t written_before = blocks_written->Value();
    const auto load_start = std::chrono::steady_clock::now();
    ShardedBulkLoader loader(storage, "bench", loader_options);
    for (size_t row = 0; row < data.size(); ++row) {
      if (Status s = loader.Add(data[row]); !s.ok()) {
        std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    auto manifest = loader.Finish();
    if (!manifest.ok()) {
      std::fprintf(stderr, "finish failed: %s\n",
                   manifest.status().ToString().c_str());
      return 1;
    }
    const double load_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      load_start)
            .count();
    const uint64_t load_blocks = blocks_written->Value() - written_before;

    ShardedSearcher::Options searcher_options;
    searcher_options.threads = kThreads;
    searcher_options.disk = args.disk;
    auto searcher = ShardedSearcher::Open(storage, *manifest,
                                          searcher_options);
    if (!searcher.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   searcher.status().ToString().c_str());
      return 1;
    }

    double io_s_sum = 0;
    double io_s_max = 0;
    uint64_t pruned = 0;
    const auto wall_start = std::chrono::steady_clock::now();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ShardQueryStats stats;
      ShardedSearchOptions options;
      options.stats = &stats;
      auto result = (*searcher)->KNearestNeighbors(queries[qi], kKnn, options);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      io_s_sum += stats.io_s_sum;
      io_s_max += stats.io_s_max;
      pruned += stats.shards_pruned;
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();

    const double mean_sum = io_s_sum / static_cast<double>(queries.size());
    const double mean_max = io_s_max / static_cast<double>(queries.size());
    const double pruned_frac =
        static_cast<double>(pruned) /
        static_cast<double>(queries.size() * num_shards);
    const double qps =
        wall_s > 0 ? static_cast<double>(queries.size()) / wall_s : 0;
    std::printf("%8zu %12.6f %12.6f %12.3f %12llu %12.3f %12.1f\n",
                num_shards, mean_sum, mean_max, pruned_frac,
                static_cast<unsigned long long>(load_blocks), load_wall_s,
                qps);

    const double x = static_cast<double>(num_shards);
    report.Add("io_s_sum", x, mean_sum);
    report.Add("io_s_max", x, mean_max);
    report.Add("pruned_frac", x, pruned_frac);
    report.Add("load_blocks_written", x, static_cast<double>(load_blocks));
  }

  report.Print();
  return 0;
}

}  // namespace
}  // namespace iq

int main(int argc, char** argv) { return iq::Main(argc, argv); }
