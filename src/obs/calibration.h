#ifndef IQ_OBS_CALIBRATION_H_
#define IQ_OBS_CALIBRATION_H_

#include <cstdint>
#include <string>

#include "common/thread_annotations.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace iq::obs {

/// Simulated query cost split by IQ-tree level, in seconds of the
/// configured disk. The same struct carries both sides of a calibration
/// sample: the cost model's prediction (T_1st/T_2nd/T_3rd, paper §3.4
/// eqns 6-22) and the cost a query actually charged
/// (IqQueryStats::observed, the sums of its spans' `io_s` per level).
struct CostBreakdown {
  /// Level-1 directory scan (eq. 22 / `dir_scan` spans).
  double t1 = 0.0;
  /// Level-2 quantized-page reads (eqns 16-21 / `batch` spans).
  double t2 = 0.0;
  /// Level-3 exact refinements (eqns 6-15 / `refine` + `exact_page`).
  double t3 = 0.0;

  double total() const { return t1 + t2 + t3; }

  CostBreakdown& operator+=(const CostBreakdown& other) {
    t1 += other.t1;
    t2 += other.t2;
    t3 += other.t3;
    return *this;
  }
};

/// Calibration verdict for one cost component over all recorded
/// queries. Relative error is (observed - predicted) / predicted per
/// query; `bias` compresses the error distribution to a direction the
/// optimizer can act on.
struct ComponentCalibration {
  std::string name;
  uint64_t samples = 0;
  /// Mean of the per-query predictions (constant per tree in practice).
  double predicted_mean = 0.0;
  double observed_mean = 0.0;
  /// Signed mean relative error; 0 when predicted_mean is 0.
  double mean_rel_error = 0.0;
  /// p50/p95 of |relative error| (histogram-estimated, see
  /// Histogram::Quantile).
  double p50_abs_rel_error = 0.0;
  double p95_abs_rel_error = 0.0;
  /// -1: model over-predicts, +1: under-predicts, 0: within +/-5%.
  int bias = 0;
};

/// Per-level calibration of the cost model against observed queries.
struct CalibrationReport {
  ComponentCalibration t1;
  ComponentCalibration t2;
  ComponentCalibration t3;
  ComponentCalibration total;
};

/// One JSON object {"samples":...,"t1":{...},...} for machine
/// consumers (`iqtool profile --json`).
std::string CalibrationToJson(const CalibrationReport& report);

/// Accumulates predicted-vs-observed cost pairs and produces the
/// CalibrationReport. Every Record() also feeds the process-wide
/// MetricRegistry: signed relative-error histograms
/// `iq_calibration_<level>_rel_error` plus an
/// `iq_calibration_samples_total` counter, so exporters publish the
/// calibration state without touching the tracker.
///
/// Thread-safe (one internal mutex); with IQ_OBS_DISABLED every method
/// is an inline no-op and Report() returns zeros.
class CalibrationTracker {
 public:
  CalibrationTracker() = default;
  CalibrationTracker(const CalibrationTracker&) = delete;
  CalibrationTracker& operator=(const CalibrationTracker&) = delete;

#if defined(IQ_OBS_DISABLED)
  void Record(const CostBreakdown&, const CostBreakdown&) {}
  CalibrationReport Report() const { return {}; }
  uint64_t samples() const { return 0; }
  void Clear() {}
#else
  /// Records one query's (predicted, observed) cost pair.
  void Record(const CostBreakdown& predicted, const CostBreakdown& observed)
      IQ_EXCLUDES(mu_);

  CalibrationReport Report() const IQ_EXCLUDES(mu_);

  uint64_t samples() const IQ_EXCLUDES(mu_);

  void Clear() IQ_EXCLUDES(mu_);

 private:
  /// Running sums + |rel error| histogram for one cost component. The
  /// p50/p95 estimates come from Histogram::Quantile over fixed
  /// relative-error buckets, so the tracker's memory is constant no
  /// matter how many queries it sees.
  struct Accumulator {
    Accumulator();
    uint64_t samples = 0;
    double predicted_sum = 0.0;
    double observed_sum = 0.0;
    double rel_error_sum = 0.0;
    Histogram abs_rel_error;
  };

  void RecordComponent(Accumulator* acc, const char* registry_name,
                       double predicted, double observed)
      IQ_REQUIRES(mu_);
  static ComponentCalibration Summarize(const char* name,
                                        const Accumulator& acc);

  mutable Mutex mu_{IQ_LOCK_RANK(30)};
  Accumulator t1_ IQ_GUARDED_BY(mu_);
  Accumulator t2_ IQ_GUARDED_BY(mu_);
  Accumulator t3_ IQ_GUARDED_BY(mu_);
  Accumulator total_ IQ_GUARDED_BY(mu_);
#endif
};

}  // namespace iq::obs

#endif  // IQ_OBS_CALIBRATION_H_
