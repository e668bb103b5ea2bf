#include "costmodel/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "common/math_utils.h"
#include "geom/volumes.h"

namespace iq {
namespace {

// Floor for degenerate page extents/volumes: a page whose MBR is
// degenerate in some dimension still has nonzero local density.
constexpr double kMinExtent = 1e-9;

double ClampedVolume(const Mbr& mbr) {
  double v = 1.0;
  for (size_t i = 0; i < mbr.dims(); ++i) {
    v *= std::max<double>(mbr.Extent(i), kMinExtent);
  }
  return v;
}

}  // namespace

CostModel::CostModel(const CostModelParams& params) : params_(params) {
  assert(params_.dims > 0);
  assert(params_.total_points > 0);
  assert(params_.fractal_dimension > 0 &&
         params_.fractal_dimension <= static_cast<double>(params_.dims) + 1e-9);
}

double CostModel::FractalVolumeExponent(double volume) const {
  const double exponent =
      params_.fractal_dimension / static_cast<double>(params_.dims);
  return std::pow(std::max(volume, 1e-300), exponent);
}

double CostModel::FractalPointDensity(const Mbr& mbr, uint64_t m) const {
  // Eq. 13: rho_F = m / prod_i (ub_i - lb_i)^(D_F/d).
  return static_cast<double>(m) / FractalVolumeExponent(ClampedVolume(mbr));
}

double CostModel::ExpectedNnRadius(const Mbr& mbr, uint64_t m) const {
  // Eq. 14 extended to k-NN (§3.4 footnote): the ball expected to hold
  // k points under fractal scaling has volume (k/rho_F)^(d/D_F).
  const double rho = FractalPointDensity(mbr, m);
  const double d_over_df =
      static_cast<double>(params_.dims) / params_.fractal_dimension;
  const double volume =
      std::pow(static_cast<double>(std::max(1u, params_.knn_k)) / rho,
               d_over_df);
  return BallRadiusForVolume(params_.dims, volume, params_.metric);
}

double CostModel::RefinementProbability(const Mbr& mbr, uint64_t m,
                                        unsigned g) const {
  if (g >= 32 || m == 0) return 0.0;
  const double r = ExpectedNnRadius(mbr, m);
  // Eq. 15: the probability that a point of this page is refined is the
  // fraction of query points inside the Minkowski enlargement of its
  // quantization cell by the NN ball. For queries local to the page
  // (the m/N share that lands here) this is P(x ~ MBR is within
  // distance r of the cell), with the cell in its typical position at
  // the page center and sides extent/2^g (eq. 10).
  //
  // For the maximum metric this is the exact normalized eq. 11:
  // prod_i min(1, (extent_i/2^g + 2r) / extent_i). For the Euclidean
  // metric the raw eq. 12 volume ratio degenerates in high dimensions
  // (the ball-vs-cube volume gap makes it over- or under-shoot by
  // orders of magnitude depending on r), so the fraction is estimated
  // by moment-matching the sum of per-dimension squared distances to
  // the cell with a normal distribution — the same estimator the page
  // scheduler uses, see access_probability.cc.
  const double scale = std::pow(2.0, static_cast<double>(g));
  std::vector<double> cell_sides(params_.dims);
  for (size_t i = 0; i < params_.dims; ++i) {
    cell_sides[i] = std::max<double>(mbr.Extent(i), kMinExtent) / scale;
  }
  // Eqns 11/12: Minkowski sum of the cell and the NN ball. The model is
  // evaluated as the *ratio* to the NN ball volume: under the fractal
  // density, the expected number of query points inside a volume V near
  // the page is rho_F * V^(D_F/d), and rho_F * V_NN^(D_F/d) = 1 by the
  // choice of r (eq. 14), so the expected refinements a point's cell
  // attracts from its page's local queries is (V_mink/V_NN)^(D_F/d).
  // The ratio form is numerically robust where the raw volumes span
  // hundreds of orders of magnitude.
  const double v_mink =
      MinkowskiSumVolume(std::span<const double>(cell_sides), r,
                         params_.metric);
  const double v_nn = BallVolume(params_.dims, r, params_.metric);
  // r was chosen so the ball holds knn_k expected points (eq. 14 with
  // the k-NN footnote), so the enlargement holds k * (ratio)^(D_F/d).
  const double count =
      static_cast<double>(std::max(1u, params_.knn_k)) *
      std::pow(std::max(v_mink / std::max(v_nn, 1e-300), 1.0),
               params_.fractal_dimension / static_cast<double>(params_.dims));
  // Each of the N data points is a potential query; the page's local
  // queries are the ones that can force this refinement.
  const double p = count / static_cast<double>(params_.total_points);
  return std::clamp(p, 0.0, 1.0);
}

double CostModel::PageRefinementCost(const Mbr& mbr, uint64_t m,
                                     unsigned g) const {
  if (g >= 32 || m == 0) return 0.0;
  const double p_point = RefinementProbability(mbr, m, g);
  // A refinement reads only the block(s) holding the point's exact
  // record (a random access into the third-level file); the expected
  // number of refinements this page contributes per query is m * p.
  const double blocks = static_cast<double>(
      CeilDiv(std::max<uint64_t>(params_.exact_record_bytes, 1),
              params_.disk.block_size));
  const double per_lookup =
      params_.disk.seek_time_s + blocks * params_.disk.xfer_time_s;
  return static_cast<double>(m) * p_point * per_lookup;
}

double CostModel::ExpectedPagesAccessed(uint64_t n_pages) const {
  if (n_pages <= 1) return static_cast<double>(n_pages);
  const double n = static_cast<double>(n_pages);
  const double big_n = static_cast<double>(params_.total_points);
  const double d = static_cast<double>(params_.dims);
  const double d_over_df = d / params_.fractal_dimension;
  // Eq. 16: average page region volume holding N/n points.
  const double v_mbr = std::min(1.0, std::pow(1.0 / n, d_over_df));
  // Eq. 17: NN sphere volume holding one point (k points for k-NN).
  const double k_points = static_cast<double>(std::max(1u, params_.knn_k));
  const double v_sphere =
      std::min(1.0, std::pow(k_points / big_n, d_over_df));
  const double a = std::pow(v_mbr, 1.0 / d);
  const double r = BallRadiusForVolume(params_.dims, v_sphere, params_.metric);
  // Eq. 18: k = n * V_mink(MBR, NN-sphere)^(D_F/d). Boundary effects at
  // high D_F are handled by clamping the Minkowski volume to the data
  // space (the paper defers the exact adaptation to [8]).
  const double v_mink =
      std::min(1.0, MinkowskiSumVolume(params_.dims, a, r, params_.metric));
  const double k = n * FractalVolumeExponent(v_mink);
  return std::clamp(k, 1.0, n);
}

double CostModel::OptimizedReadCost(double k, uint64_t n_pages) const {
  // Eqns 19-21: the k pages are assumed uniformly spread over the n-page
  // file; a gap of D pages is over-read if D <= v = t_seek/t_xfer, else
  // a seek is paid. One second-level page occupies one block.
  const double n = static_cast<double>(n_pages);
  if (n_pages == 0) return 0.0;
  k = std::clamp(k, 1.0, n);
  const double t_seek = params_.disk.seek_time_s;
  const double t_xfer = params_.disk.xfer_time_s;
  const double density = k / n;  // P(a given page is loaded)
  const unsigned v = std::max(1u, static_cast<unsigned>(
                                      params_.disk.SeekEquivalentBlocks()));
  // First page: one seek + one transfer.
  double cost = t_seek + t_xfer;
  if (k <= 1.0) return cost;
  // Expected cost of one gap between consecutive loaded pages:
  // P(D = a) = (1-density)^(a-1) * density for a = 1..v (over-read a
  // transfers), P(D > v) = (1-density)^v (seek + transfer).
  double gap_cost = 0.0;
  double p_geq = 1.0;  // P(D >= a), starts at a = 1
  for (unsigned a = 1; a <= v; ++a) {
    const double p_eq = p_geq * density;
    gap_cost += p_eq * static_cast<double>(a) * t_xfer;
    p_geq *= 1.0 - density;
  }
  gap_cost += p_geq * (t_seek + t_xfer);
  cost += (k - 1.0) * gap_cost;
  return cost;
}

double CostModel::SecondLevelCost(uint64_t n_pages) const {
  return OptimizedReadCost(ExpectedPagesAccessed(n_pages), n_pages);
}

double CostModel::DirectoryScanCost(uint64_t n_pages) const {
  // Eq. 22: the flat directory is read sequentially once per query.
  const uint64_t bytes = n_pages * params_.dir_entry_bytes;
  const double blocks = static_cast<double>(
      CeilDiv(std::max<uint64_t>(bytes, 1), params_.disk.block_size));
  return params_.disk.seek_time_s + blocks * params_.disk.xfer_time_s;
}

double CostModel::TotalCost(uint64_t n_pages,
                            double sum_refinement_cost) const {
  return DirectoryScanCost(n_pages) + SecondLevelCost(n_pages) +
         sum_refinement_cost;
}

}  // namespace iq
