#ifndef IQ_COSTMODEL_COST_MODEL_H_
#define IQ_COSTMODEL_COST_MODEL_H_

#include <cstdint>

#include "geom/mbr.h"
#include "geom/metrics.h"
#include "io/disk_model.h"

namespace iq {

/// Inputs of the paper's cost model (§3.4).
struct CostModelParams {
  DiskParameters disk;
  Metric metric = Metric::kL2;
  size_t dims = 0;
  /// Total number of points in the database (the paper's N).
  uint64_t total_points = 0;
  /// Fractal (correlation) dimension D_F of the data; equals dims for
  /// uniform/independent data. Must be in (0, dims].
  double fractal_dimension = 0.0;
  /// Bytes of one first-level directory entry (eq. 22).
  size_t dir_entry_bytes = 0;
  /// Bytes of one exact point record on the third level (id + floats);
  /// determines the size, hence read cost, of a refinement access.
  size_t exact_record_bytes = 0;
  /// k of the k-nearest-neighbor queries the model optimizes for
  /// (paper footnote in §3.4: "one simply has to determine the volume
  /// in which an expected number of k points is located"). Defaults to
  /// plain NN.
  unsigned knn_k = 1;
};

/// The IQ-tree cost model (paper §3.4): expected nearest-neighbor query
/// cost T = T_1st + T_2nd + T_3rd under the query-follows-data
/// assumption, with correlation handled through the fractal dimension.
///
/// All returned costs are in simulated seconds of the configured disk.
class CostModel {
 public:
  explicit CostModel(const CostModelParams& params);

  const CostModelParams& params() const { return params_; }

  /// Fractal point density of a page region (eq. 13):
  /// rho_F = m / (prod extents)^(D_F/d).
  double FractalPointDensity(const Mbr& mbr, uint64_t m) const;

  /// Expected NN distance inside the page region (eq. 14): radius of the
  /// metric ball expected to contain one point under rho_F.
  double ExpectedNnRadius(const Mbr& mbr, uint64_t m) const;

  /// Probability that one point of the page must be refined (eq. 15 with
  /// the Minkowski volume of its quantization cell, eqns 10-12). g is the
  /// bits-per-dimension of the page; g >= 32 means exact and returns 0.
  double RefinementProbability(const Mbr& mbr, uint64_t m, unsigned g) const;

  /// Expected refinement (third-level) cost contributed by this page to
  /// one query: P(at least one of the m points refined) times the cost
  /// of reading the page's variable-size exact extent. This is the
  /// optimizer's *variable cost* — it is monotonically decreasing in g
  /// and in splits (paper eqns 24-26), which the optimizer relies on.
  double PageRefinementCost(const Mbr& mbr, uint64_t m, unsigned g) const;

  /// Expected number k of second-level pages a NN query must read, out
  /// of n pages total (eqns 16-18).
  double ExpectedPagesAccessed(uint64_t n_pages) const;

  /// Expected time for optimized reading of k out of n second-level
  /// pages with the seek-vs-overread strategy (eqns 19-21).
  double OptimizedReadCost(double k, uint64_t n_pages) const;

  /// T_2nd: ExpectedPagesAccessed + OptimizedReadCost combined.
  double SecondLevelCost(uint64_t n_pages) const;

  /// T_1st: sequential scan of the first-level directory (eq. 22).
  double DirectoryScanCost(uint64_t n_pages) const;

  /// Total expected query cost for a solution with n pages whose summed
  /// per-page refinement (variable) cost is `sum_refinement_cost`
  /// (eq. 23): T_1st(n) + T_2nd(n) + sum_refinement_cost.
  double TotalCost(uint64_t n_pages, double sum_refinement_cost) const;

 private:
  /// (volume)^(D_F/d) with underflow clamping.
  double FractalVolumeExponent(double volume) const;

  CostModelParams params_;
};

}  // namespace iq

#endif  // IQ_COSTMODEL_COST_MODEL_H_
