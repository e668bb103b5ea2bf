// Range reporting across the IQ-tree, X-tree and VA-file: "find every
// measurement inside this box / this radius" — the workload where the
// structures' characters differ the most. All answers are exact and
// identical; only the simulated I/O cost differs.

#include <algorithm>
#include <cstdio>
#include <set>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"
#include "vafile/va_file.h"
#include "xtree/x_tree.h"

int main() {
  using namespace iq;
  const size_t kPoints = 30000;
  const size_t kDims = 9;

  Dataset data = GenerateWeatherLike(kPoints + 2, kDims, 31);
  const Dataset probes = data.TakeTail(2);

  MemoryStorage storage;
  DiskModel disk;

  auto iq_tree = IqTree::Build(data, storage, "iq", disk, {});
  auto x_tree = XTree::Build(data, storage, "x", disk, {});
  VaFile::Options va_options;
  va_options.bits_per_dim = 6;
  auto va = VaFile::Build(data, storage, "va", disk, va_options);
  if (!iq_tree.ok() || !x_tree.ok() || !va.ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  std::printf("indexed %zu 9-d weather measurements in 3 structures\n\n",
              kPoints);

  auto timed = [&](auto&& fn) {
    disk.ResetStats();
    disk.InvalidateHead();
    auto result = fn();
    return std::make_pair(std::move(result), disk.stats().io_time_s);
  };

  for (size_t pi = 0; pi < probes.size(); ++pi) {
    // A window around the probe: "conditions similar in every variable".
    std::vector<float> lb(kDims), ub(kDims);
    for (size_t j = 0; j < kDims; ++j) {
      lb[j] = std::max(0.0f, probes[pi][j] - 0.08f);
      ub[j] = std::min(1.0f, probes[pi][j] + 0.08f);
    }
    const Mbr window = Mbr::FromBounds(lb, ub);

    auto [iq_ids, iq_time] =
        timed([&] { return (*iq_tree)->WindowQuery(window); });
    auto [x_ids, x_time] =
        timed([&] { return (*x_tree)->WindowQuery(window); });
    auto [va_ids, va_time] =
        timed([&] { return (*va)->WindowQuery(window); });
    if (!iq_ids.ok() || !x_ids.ok() || !va_ids.ok()) {
      std::fprintf(stderr, "window query failed\n");
      return 1;
    }
    const std::set<PointId> reference(iq_ids->begin(), iq_ids->end());
    const bool agree =
        reference == std::set<PointId>(x_ids->begin(), x_ids->end()) &&
        reference == std::set<PointId>(va_ids->begin(), va_ids->end());
    std::printf("window probe %zu: %zu hits (all structures agree: %s)\n",
                pi, reference.size(), agree ? "yes" : "NO");
    std::printf("  IQ-tree %.4fs | X-tree %.4fs | VA-file %.4fs\n",
                iq_time, x_time, va_time);

    // The same neighborhood as a metric ball.
    auto [iq_ball, ball_time] =
        timed([&] { return (*iq_tree)->RangeSearch(probes[pi], 0.1); });
    if (!iq_ball.ok()) return 1;
    std::printf("  ball r=0.1 via IQ-tree: %zu hits in %.4fs\n\n",
                iq_ball->size(), ball_time);
  }
  return 0;
}
