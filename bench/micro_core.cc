// Google-benchmark micro-benchmarks for the hot code paths: bit packing,
// grid quantization, distance/MINDIST kernels, Minkowski volumes, fetch
// planning and the split-tree optimizer.

#include <numeric>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "costmodel/access_probability.h"
#include "core/format.h"
#include "core/partitioner.h"
#include "core/split_tree_optimizer.h"
#include "costmodel/cost_model.h"
#include "data/generators.h"
#include "geom/metrics.h"
#include "geom/volumes.h"
#include "obs/metrics.h"
#include "quant/bit_stream.h"
#include "quant/grid_quantizer.h"
#include "sched/fetch_plan.h"

namespace iq {
namespace {

void BM_BitPackUnpack(benchmark::State& state) {
  const unsigned bits = static_cast<unsigned>(state.range(0));
  const size_t count = 4096;
  std::vector<uint32_t> values(count);
  Rng rng(1);
  for (uint32_t& v : values) {
    v = static_cast<uint32_t>(rng.Index(uint64_t{1} << bits));
  }
  std::vector<uint8_t> buf((count * bits + 7) / 8 + 8, 0);
  for (auto _ : state) {
    BitWriter writer(buf.data());
    for (uint32_t v : values) writer.Put(v, bits);
    writer.Flush();
    BitReader reader(buf.data());
    uint32_t sum = 0;
    for (size_t i = 0; i < count; ++i) sum += reader.Get(bits);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * count * 2);
}
BENCHMARK(BM_BitPackUnpack)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_QuantizerEncode(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateUniform(1000, dims, 2);
  const GridQuantizer quantizer(data.Bounds(), 8);
  std::vector<uint32_t> cells;
  for (auto _ : state) {
    for (size_t i = 0; i < data.size(); ++i) {
      quantizer.Encode(data[i], cells);
      benchmark::DoNotOptimize(cells.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_QuantizerEncode)->Arg(4)->Arg(16);

void BM_Distance(benchmark::State& state) {
  const size_t dims = 16;
  const Dataset data = GenerateUniform(1024, dims, 3);
  const std::vector<float> q(dims, 0.5f);
  const Metric metric = state.range(0) == 0 ? Metric::kL2 : Metric::kLMax;
  for (auto _ : state) {
    double sum = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      sum += Distance(q, data[i], metric);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Distance)->Arg(0)->Arg(1);

void BM_MinDist(benchmark::State& state) {
  const size_t dims = 16;
  Rng rng(4);
  std::vector<Mbr> boxes;
  for (int i = 0; i < 256; ++i) {
    std::vector<float> lb(dims), ub(dims);
    for (size_t j = 0; j < dims; ++j) {
      lb[j] = static_cast<float>(rng.Uniform(0, 0.9));
      ub[j] = lb[j] + static_cast<float>(rng.Uniform(0, 0.1));
    }
    boxes.push_back(Mbr::FromBounds(lb, ub));
  }
  const std::vector<float> q(dims, 0.5f);
  for (auto _ : state) {
    double sum = 0;
    for (const Mbr& box : boxes) sum += MinDist(q, box, Metric::kL2);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * boxes.size());
}
BENCHMARK(BM_MinDist);

void BM_MinkowskiSum(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  std::vector<double> sides(dims, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinkowskiSumVolume(sides, 0.05, Metric::kL2));
  }
}
BENCHMARK(BM_MinkowskiSum)->Arg(4)->Arg(16)->Arg(64);

void BM_FetchPlan(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint64_t> blocks;
  uint64_t pos = 0;
  for (int i = 0; i < 1000; ++i) {
    pos += 1 + rng.Index(10);
    blocks.push_back(pos);
  }
  const DiskParameters disk;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanKnownSetFetch(blocks, disk));
  }
  state.SetItemsProcessed(state.iterations() * blocks.size());
}
BENCHMARK(BM_FetchPlan);

void BM_Partitioner(benchmark::State& state) {
  const Dataset data = GenerateUniform(50000, 16, 6);
  for (auto _ : state) {
    std::vector<PointId> ids(data.size());
    std::iota(ids.begin(), ids.end(), 0);
    benchmark::DoNotOptimize(PartitionDataset(data, ids, 512));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Partitioner)->Unit(benchmark::kMillisecond);

void BM_SplitTreeOptimizer(benchmark::State& state) {
  const Dataset data = GenerateCadLike(50000, 16, 7);
  CostModelParams params;
  params.dims = 16;
  params.total_points = data.size();
  params.fractal_dimension = 9.0;
  params.dir_entry_bytes = DirEntryBytes(16);
  params.exact_record_bytes = ExactRecordBytes(16);
  const CostModel model(params);
  const uint32_t cap1 = QuantPageCapacity(16, 1, params.disk.block_size);
  for (auto _ : state) {
    std::vector<PointId> ids(data.size());
    std::iota(ids.begin(), ids.end(), 0);
    const auto initial = PartitionDataset(data, ids, cap1);
    benchmark::DoNotOptimize(OptimizeQuantization(
        data, ids, initial, model, params.disk.block_size));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SplitTreeOptimizer)->Unit(benchmark::kMillisecond);

// Observability overhead: the per-event cost of the instrumentation the
// rest of the library sprinkles on its hot paths. With IQ_OBS_DISABLED
// these compile to nothing and the benchmarks measure an empty loop.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricRegistry::Global().GetCounter("bench_obs_counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd)->ThreadRange(1, 8);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static constexpr double kBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                       1e-2, 0.1,  1.0,  10.0};
  obs::Histogram* histogram = obs::MetricRegistry::Global().GetHistogram(
      "bench_obs_histogram", kBounds);
  double v = 1e-7;
  for (auto _ : state) {
    histogram->Observe(v);
    v = v < 1.0 ? v * 10 : 1e-7;  // rotate through the buckets
    benchmark::DoNotOptimize(histogram);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_AccessProbability(benchmark::State& state) {
  const size_t dims = 16;
  Rng rng(10);
  std::vector<Mbr> boxes;
  for (int i = 0; i < 128; ++i) {
    std::vector<float> lb(dims), ub(dims);
    for (size_t j = 0; j < dims; ++j) {
      lb[j] = static_cast<float>(rng.Uniform(0, 0.8));
      ub[j] = lb[j] + static_cast<float>(rng.Uniform(0.1, 0.2));
    }
    boxes.push_back(Mbr::FromBounds(lb, ub));
  }
  // One moments slot per region, as the kNN planner keeps them.
  std::vector<DistanceMoments> moments(boxes.size());
  std::vector<PrunerRegion> regions;
  for (size_t i = 0; i < boxes.size(); ++i) {
    regions.push_back({&boxes[i], 500, &moments[i]});
  }
  const std::vector<float> q(dims, 0.5f);
  for (auto _ : state) {
    size_t next = 0;
    benchmark::DoNotOptimize(PageAccessProbability(
        q, 0.4,
        [&](PrunerRegion* region) {
          if (next == regions.size()) return false;
          *region = regions[next++];
          return true;
        },
        Metric::kL2));
  }
  state.SetItemsProcessed(state.iterations() * regions.size());
}
BENCHMARK(BM_AccessProbability);

}  // namespace
}  // namespace iq

BENCHMARK_MAIN();
