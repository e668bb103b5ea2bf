// iqperf: runs one benchmark workload and prints its metrics.
//
//   iqperf --workload cad-knn --seed 1 --seconds 15 --trace 0 [--small]
//
// Every metric goes to stdout as "<name> <value> <unit>"; the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"} whose
// metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1). The exit code is 0 only when every answer matched brute
// force and every self-check held.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perf.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: iqperf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small]\nworkloads:");
  for (const std::string& name : iqperf::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

void PrintMetrics(const char* section,
                  const std::vector<iqperf::Metric>& metrics) {
  for (const iqperf::Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  iqperf::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      config.trace = std::atoi(argv[++i]) != 0;
    } else if (std::strcmp(argv[i], "--small") == 0) {
      config.small = true;
    } else {
      Usage();
    }
  }
  bool known = false;
  for (const std::string& name : iqperf::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known || !(config.seconds > 0)) Usage();

  const iqperf::Outcome outcome = iqperf::RunWorkload(config);
  std::vector<std::string> problems = outcome.problems;
  const std::vector<iqperf::Metric>& reported =
      config.trace ? outcome.per_layer : outcome.end_to_end;
  for (const iqperf::Metric& m : reported) {
    if (!std::isfinite(m.value)) problems.push_back(m.name + " is not finite");
  }
  const bool correct =
      outcome.attempted > 0 && outcome.failed == 0 && problems.empty();

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  PrintMetrics("end_to_end", outcome.end_to_end);
  if (config.trace) PrintMetrics("per_layer", outcome.per_layer);
  std::printf("error_rate %.17g (%llu failed of %llu attempted)\n",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 1.0,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& p : problems) std::printf("problem: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(reported[i].value) ? reported[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
