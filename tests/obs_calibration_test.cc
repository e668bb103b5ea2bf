// Cost-model calibration telemetry: the tracker must aggregate
// predicted-vs-observed error correctly, and — the regression
// contract — the model's predicted T_2nd/T_3rd must agree with each
// query's observed per-level simulated I/O (IqQueryStats::observed) on
// uniform data within a documented factor (a perturbed model must fail
// the same check). That the observed split equals the query's span
// io_s per level is obs_trace_test's and per_query_io_test's.

#include "obs/calibration.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"

namespace iq {
namespace {

using obs::CalibrationReport;
using obs::CalibrationTracker;
using obs::CostBreakdown;

TEST(CalibrationTrackerTest, AggregatesErrorAndBias) {
  CalibrationTracker tracker;
  // Two samples; t1 is predicted exactly, t2 is under-predicted 2x,
  // t3 over-predicted 2x.
  tracker.Record(CostBreakdown{1.0, 1.0, 4.0},
                 CostBreakdown{1.0, 2.0, 2.0});
  tracker.Record(CostBreakdown{1.0, 1.0, 4.0},
                 CostBreakdown{1.0, 2.0, 2.0});
  const CalibrationReport report = tracker.Report();
  if (!obs::kEnabled) {
    EXPECT_EQ(report.total.samples, 0u);
    EXPECT_EQ(tracker.samples(), 0u);
    return;
  }
  EXPECT_EQ(tracker.samples(), 2u);
  EXPECT_EQ(report.t1.samples, 2u);
  EXPECT_DOUBLE_EQ(report.t1.predicted_mean, 1.0);
  EXPECT_DOUBLE_EQ(report.t1.observed_mean, 1.0);
  EXPECT_DOUBLE_EQ(report.t1.mean_rel_error, 0.0);
  EXPECT_EQ(report.t1.bias, 0);
  EXPECT_DOUBLE_EQ(report.t2.mean_rel_error, 1.0);  // (2-1)/1
  EXPECT_EQ(report.t2.bias, 1);                     // under-prediction
  EXPECT_DOUBLE_EQ(report.t3.mean_rel_error, -0.5);  // (2-4)/4
  EXPECT_EQ(report.t3.bias, -1);                     // over-prediction
  // total: predicted 6, observed 5 -> (5-6)/6
  EXPECT_NEAR(report.total.mean_rel_error, -1.0 / 6.0, 1e-12);
  // |rel error| quantiles come from the fixed-bucket histogram. Both
  // t2 errors (exactly 1.0) land in the (0.75, 1.0] bucket, so the
  // estimates interpolate inside that bucket: rank 1 of 2 sits halfway
  // (p50 = 0.75 + 0.25 * 0.5) and rank 1.9 at 95% of the width.
  EXPECT_DOUBLE_EQ(report.t2.p50_abs_rel_error, 0.875);
  EXPECT_DOUBLE_EQ(report.t2.p95_abs_rel_error, 0.9875);
  tracker.Clear();
  EXPECT_EQ(tracker.samples(), 0u);
}

TEST(CalibrationTrackerTest, JsonReportHasAllComponents) {
  CalibrationTracker tracker;
  tracker.Record(CostBreakdown{1.0, 2.0, 3.0}, CostBreakdown{1.0, 2.0, 3.0});
  const std::string json = obs::CalibrationToJson(tracker.Report());
  for (const char* key :
       {"\"samples\"", "\"t1\"", "\"t2\"", "\"t3\"", "\"total\"",
        "\"predicted_mean\"", "\"observed_mean\"", "\"mean_rel_error\"",
        "\"p50_abs_rel_error\"", "\"p95_abs_rel_error\"", "\"bias\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

/// The documented calibration tolerance (docs/cost_model.md,
/// "Validating the model"): on uniform data the predicted per-query
/// T_2nd and T_3rd means must be within this factor of the observed
/// means. The model is analytic and the I/O simulated, so the factor
/// absorbs only model approximations (independence assumptions,
/// fractal-dimension fit), not machine noise.
constexpr double kCalibrationFactor = 3.0;

bool WithinFactor(double predicted, double observed, double factor) {
  if (predicted <= 0.0 || observed <= 0.0) return false;
  const double ratio = observed / predicted;
  return ratio >= 1.0 / factor && ratio <= factor;
}

class CalibrationAccuracyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CalibrationAccuracyTest, PredictionMatchesObservationWithinFactor) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const size_t dims = GetParam();
  constexpr size_t kQueries = 24;
  Dataset data = GenerateUniform(3000 + kQueries, dims, 7);
  const Dataset queries = data.TakeTail(kQueries);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  IqTree::Options build_options;
  build_options.optimize_for_k = 5;
  auto tree = IqTree::Build(data, storage, "t", disk, build_options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  const CostBreakdown predicted = (*tree)->PredictCost();
  CalibrationTracker tracker;
  for (size_t i = 0; i < queries.size(); ++i) {
    IqTree::QueryStats stats;
    IqSearchOptions options;
    options.stats = &stats;
    auto hits = (*tree)->KNearestNeighbors(queries[i], 5, options);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    tracker.Record(predicted, stats.observed);
  }
  const CalibrationReport report = tracker.Report();
  ASSERT_EQ(report.total.samples, kQueries);
  EXPECT_GT(report.t2.observed_mean, 0.0);
  EXPECT_GT(report.t3.observed_mean, 0.0);
  EXPECT_TRUE(WithinFactor(report.t2.predicted_mean, report.t2.observed_mean,
                           kCalibrationFactor))
      << "T_2nd predicted " << report.t2.predicted_mean << " vs observed "
      << report.t2.observed_mean;
  EXPECT_TRUE(WithinFactor(report.t3.predicted_mean, report.t3.observed_mean,
                           kCalibrationFactor))
      << "T_3rd predicted " << report.t3.predicted_mean << " vs observed "
      << report.t3.observed_mean;

  // Regression guard: a perturbed cost model (10x on every component)
  // must fail the same tolerance — the check has teeth.
  const CostBreakdown perturbed{predicted.t1 * 10.0, predicted.t2 * 10.0,
                                predicted.t3 * 10.0};
  EXPECT_FALSE(WithinFactor(perturbed.t2, report.t2.observed_mean,
                            kCalibrationFactor));
  EXPECT_FALSE(WithinFactor(perturbed.t3, report.t3.observed_mean,
                            kCalibrationFactor));
}

INSTANTIATE_TEST_SUITE_P(UniformDims, CalibrationAccuracyTest,
                         ::testing::Values(8, 16));

}  // namespace
}  // namespace iq
