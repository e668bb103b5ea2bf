#include "obs/calibration.h"

#include <array>
#include <cmath>
#include <span>

#include "obs/json.h"
#include "obs/metric_names.h"

namespace iq::obs {

namespace {

void WriteComponent(JsonWriter& w, const ComponentCalibration& c) {
  w.BeginObject();
  w.Key("samples").Uint(c.samples);
  w.Key("predicted_mean").Double(c.predicted_mean);
  w.Key("observed_mean").Double(c.observed_mean);
  w.Key("mean_rel_error").Double(c.mean_rel_error);
  w.Key("p50_abs_rel_error").Double(c.p50_abs_rel_error);
  w.Key("p95_abs_rel_error").Double(c.p95_abs_rel_error);
  w.Key("bias").Int(c.bias);
  w.EndObject();
}

}  // namespace

std::string CalibrationToJson(const CalibrationReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("samples").Uint(report.total.samples);
  w.Key("t1");
  WriteComponent(w, report.t1);
  w.Key("t2");
  WriteComponent(w, report.t2);
  w.Key("t3");
  WriteComponent(w, report.t3);
  w.Key("total");
  WriteComponent(w, report.total);
  w.EndObject();
  return w.str();
}

#if !defined(IQ_OBS_DISABLED)

namespace {

/// |relative error| buckets shared by the tracker's internal quantile
/// histograms and the registry export. Dense below 1 (a usable model
/// lands there), sparse above (only the bias sign matters once the
/// model is off by integer factors).
constexpr std::array<double, 14> kAbsRelErrorBounds = {
    0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0,
    5.0,  10.0};

/// Signed relative-error buckets for the exported per-level
/// histograms: negative = over-prediction, positive = under.
constexpr std::array<double, 12> kSignedRelErrorBounds = {
    -2.0, -1.0, -0.5, -0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2, 0.5, 1.0};

/// Bias calls the model wrong only past +/-5% mean relative error.
constexpr double kBiasDeadband = 0.05;

double RelError(double predicted, double observed) {
  if (predicted == 0.0) return 0.0;
  return (observed - predicted) / predicted;
}

}  // namespace

CalibrationTracker::Accumulator::Accumulator()
    : abs_rel_error(std::span<const double>(kAbsRelErrorBounds)) {}

void CalibrationTracker::RecordComponent(Accumulator* acc,
                                         const char* registry_name,
                                         double predicted, double observed) {
  const double rel = RelError(predicted, observed);
  acc->samples += 1;
  acc->predicted_sum += predicted;
  acc->observed_sum += observed;
  acc->rel_error_sum += rel;
  acc->abs_rel_error.Observe(std::abs(rel));
  // Exported mirror: one signed-error histogram per level, registered
  // on first use and cached (pointer stays valid for process lifetime).
  MetricRegistry::Global()
      .GetHistogram(registry_name,
                    std::span<const double>(kSignedRelErrorBounds))
      ->Observe(rel);
}

void CalibrationTracker::Record(const CostBreakdown& predicted,
                                const CostBreakdown& observed) {
  MutexLock lock(&mu_);
  RecordComponent(&t1_, metric::kCalibrationT1RelError, predicted.t1,
                  observed.t1);
  RecordComponent(&t2_, metric::kCalibrationT2RelError, predicted.t2,
                  observed.t2);
  RecordComponent(&t3_, metric::kCalibrationT3RelError, predicted.t3,
                  observed.t3);
  RecordComponent(&total_, metric::kCalibrationTotalRelError,
                  predicted.total(), observed.total());
  MetricRegistry::Global()
      .GetCounter(metric::kCalibrationSamplesTotal)
      ->Increment();
}

ComponentCalibration CalibrationTracker::Summarize(const char* name,
                                                   const Accumulator& acc) {
  ComponentCalibration out;
  out.name = name;
  out.samples = acc.samples;
  if (acc.samples == 0) return out;
  const double n = static_cast<double>(acc.samples);
  out.predicted_mean = acc.predicted_sum / n;
  out.observed_mean = acc.observed_sum / n;
  out.mean_rel_error = acc.rel_error_sum / n;
  out.p50_abs_rel_error = acc.abs_rel_error.Quantile(0.50);
  out.p95_abs_rel_error = acc.abs_rel_error.Quantile(0.95);
  if (out.mean_rel_error > kBiasDeadband) {
    out.bias = 1;
  } else if (out.mean_rel_error < -kBiasDeadband) {
    out.bias = -1;
  }
  return out;
}

CalibrationReport CalibrationTracker::Report() const {
  MutexLock lock(&mu_);
  CalibrationReport report;
  report.t1 = Summarize("t1", t1_);
  report.t2 = Summarize("t2", t2_);
  report.t3 = Summarize("t3", t3_);
  report.total = Summarize("total", total_);
  return report;
}

uint64_t CalibrationTracker::samples() const {
  MutexLock lock(&mu_);
  return total_.samples;
}

void CalibrationTracker::Clear() {
  MutexLock lock(&mu_);
  for (Accumulator* acc : {&t1_, &t2_, &t3_, &total_}) {
    acc->samples = 0;
    acc->predicted_sum = 0.0;
    acc->observed_sum = 0.0;
    acc->rel_error_sum = 0.0;
    acc->abs_rel_error.Reset();
  }
}

#endif  // !IQ_OBS_DISABLED

}  // namespace iq::obs
