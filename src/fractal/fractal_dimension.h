#ifndef IQ_FRACTAL_FRACTAL_DIMENSION_H_
#define IQ_FRACTAL_FRACTAL_DIMENSION_H_

#include <cstddef>
#include <cstdint>

#include "geom/point.h"

namespace iq {

/// Options for the fractal dimension estimators.
struct FractalOptions {
  /// Finest grid level used: cells have side 2^-max_level of the data
  /// extent.
  unsigned min_level = 1;
  unsigned max_level = 6;
  /// Points are subsampled to at most this many for speed.
  size_t max_sample = 50000;
  uint64_t seed = 42;
};

/// Estimate of a fractal dimension with its fit quality.
struct FractalEstimate {
  double dimension = 0.0;
  /// r^2 of the log-log fit; below ~0.9 the data is not self-similar over
  /// the probed scales and `dimension` should be used with caution.
  double fit_r2 = 0.0;
  /// Number of grid levels actually used in the fit.
  unsigned levels_used = 0;
};

/// Correlation dimension D2 via box counting (Belussi & Faloutsos '95,
/// the paper's [2]): S(s) = sum over grid cells of (n_cell/N)^2 scales
/// as s^D2; D2 is the slope of log S against log s. This is the D_F used
/// in the paper's cost model (eqns 13-18).
///
/// `rows` is row-major, `count` x `dims`. The data is normalized to its
/// own bounding box before gridding. The result is clamped to (0, dims].
FractalEstimate EstimateCorrelationDimension(
    const float* rows, size_t count, size_t dims,
    const FractalOptions& options = FractalOptions());

}  // namespace iq

#endif  // IQ_FRACTAL_FRACTAL_DIMENSION_H_
