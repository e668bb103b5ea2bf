#ifndef IQPERF_LAYERS_H_
#define IQPERF_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace iqperf {

/// Span kind: the name with trailing digits stripped, so the sharded
/// engine's "wave0"/"shard3" fold into "wave"/"shard".
std::string SpanKind(std::string_view name);

/// Adds every span's self time to `self_ns[SpanKind(name)]`. Self time
/// is the span's duration minus the part of it that its children cover
/// (children clipped to the parent, overlapping children counted once).
/// Returns the sum of all self times; for a tree whose children run one
/// after another inside their parents this equals the roots' durations.
int64_t FoldSelfTimes(const std::vector<iq::obs::SpanRecord>& spans,
                      std::map<std::string, int64_t>* self_ns);

/// Sum of the durations of all root spans (parent == kNoSpan).
int64_t RootDuration(const std::vector<iq::obs::SpanRecord>& spans);

/// Appends the duration in milliseconds of every span of kind `kind`.
void CollectDurationsMs(const std::vector<iq::obs::SpanRecord>& spans,
                        std::string_view kind, std::vector<double>* out);

/// Appends, for every span of kind `kind` that has a child, the gap in
/// milliseconds between the span's start and its first child's start.
/// On `shard<i>` spans this is the time the per-shard task waited for a
/// fan-out pool thread.
void CollectFirstChildDelayMs(const std::vector<iq::obs::SpanRecord>& spans,
                              std::string_view kind, std::vector<double>* out);

/// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

}  // namespace iqperf

#endif  // IQPERF_LAYERS_H_
