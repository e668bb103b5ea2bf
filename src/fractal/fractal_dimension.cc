#include "fractal/fractal_dimension.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/cast.h"
#include "common/math_utils.h"
#include "common/random.h"
#include "geom/mbr.h"

namespace iq {
namespace {

// splitmix64 mixing for cell-coordinate hashing.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Per-level grid statistics: number of occupied cells and sum of squared
// relative occupancies.
struct LevelStats {
  size_t occupied = 0;
  double sum_sq = 0.0;
};

// Computes grid statistics for cells of side 2^-level (of the normalized
// data cube) over a subsample of the data.
LevelStats GridStats(const std::vector<const float*>& sample, size_t dims,
                     const Mbr& bounds, unsigned level) {
  const uint32_t cells = uint32_t{1} << level;
  std::unordered_map<uint64_t, uint32_t> counts;
  counts.reserve(sample.size() * 2);
  for (const float* p : sample) {
    uint64_t key = 0;
    for (size_t i = 0; i < dims; ++i) {
      const float ext = bounds.Extent(i);
      uint32_t c = 0;
      if (ext > 0) {
        const float rel = (p[i] - bounds.lb(i)) / ext;
        // ClampedCast (common/cast.h): the old min-after-cast still hit
        // UB first when rel * cells reached 2^32; clamp before casting.
        c = ClampedCast<uint32_t>(rel * static_cast<float>(cells), 0,
                                  cells - 1);
      }
      key = Mix64(key ^ (static_cast<uint64_t>(c) + 1));
    }
    ++counts[key];
  }
  LevelStats stats;
  stats.occupied = counts.size();
  const double n = static_cast<double>(sample.size());
  for (const auto& [key, count] : counts) {
    const double f = static_cast<double>(count) / n;
    stats.sum_sq += f * f;
  }
  return stats;
}

std::vector<const float*> Subsample(const float* rows, size_t count,
                                    size_t dims, size_t max_sample,
                                    uint64_t seed) {
  std::vector<const float*> sample;
  if (count <= max_sample) {
    sample.reserve(count);
    for (size_t i = 0; i < count; ++i) sample.push_back(rows + i * dims);
    return sample;
  }
  Rng rng(seed);
  sample.reserve(max_sample);
  for (size_t i = 0; i < max_sample; ++i) {
    sample.push_back(rows + rng.Index(count) * dims);
  }
  return sample;
}

FractalEstimate FitLevels(const std::vector<double>& log_side,
                          const std::vector<double>& log_value, size_t dims) {
  FractalEstimate est;
  if (log_side.size() < 2) {
    // Not enough scales: fall back to the embedding dimension.
    est.dimension = static_cast<double>(dims);
    est.fit_r2 = 0.0;
    est.levels_used = static_cast<unsigned>(log_side.size());
    return est;
  }
  const LineFit fit = FitLine(log_side, log_value);
  est.dimension = std::clamp(fit.slope, 1e-3, static_cast<double>(dims));
  est.fit_r2 = fit.r2;
  est.levels_used = static_cast<unsigned>(log_side.size());
  return est;
}

}  // namespace

FractalEstimate EstimateCorrelationDimension(const float* rows, size_t count,
                                             size_t dims,
                                             const FractalOptions& options) {
  FractalEstimate fallback;
  fallback.dimension = static_cast<double>(dims);
  if (count < 2 || dims == 0) return fallback;
  const auto sample =
      Subsample(rows, count, dims, options.max_sample, options.seed);
  const Mbr bounds = [&] {
    Mbr m = Mbr::Empty(dims);
    for (const float* p : sample) m.Extend(PointView(p, dims));
    return m;
  }();

  std::vector<double> log_side, log_value;
  for (unsigned level = options.min_level; level <= options.max_level;
       ++level) {
    const LevelStats stats = GridStats(sample, dims, bounds, level);
    // Once nearly every point sits alone in its cell, S(s) saturates at
    // 1/N and finer levels carry no information; stop there.
    if (stats.occupied * 10 > sample.size() * 9) break;
    log_side.push_back(-static_cast<double>(level) * std::log(2.0));
    log_value.push_back(std::log(stats.sum_sq));
  }
  return FitLevels(log_side, log_value, dims);
}

}  // namespace iq
