#ifndef IQPERF_PERF_H_
#define IQPERF_PERF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace iqperf {

/// One reported number, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Command-line settings of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the untraced measurement window.
  double seconds = 10;
  /// true: also run the traced pass and report the per-layer metrics.
  bool trace = false;
  /// true: reduced N and pool sizes (the self-test scale).
  bool small = false;
};

/// Everything one run found out.
struct Outcome {
  /// Operations issued and operations that failed: a bad Status, a
  /// rejected or timed-out query, or an answer that disagrees with the
  /// brute-force oracle.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed self-checks (determinism drift, traced sums that do not add
  /// up). Any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// From the untraced window.
  std::vector<Metric> end_to_end;
  /// From the traced pass (filled only when Config::trace is set).
  std::vector<Metric> per_layer;
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Unknown names leave a problem entry.
Outcome RunWorkload(const Config& config);

}  // namespace iqperf

#endif  // IQPERF_PERF_H_
