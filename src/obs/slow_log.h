#ifndef IQ_OBS_SLOW_LOG_H_
#define IQ_OBS_SLOW_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/mutex.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iq::obs {

/// Retention policy of the slow-query log.
struct SlowLogOptions {
  /// Ring size: the newest `capacity` retained queries are kept, older
  /// ones are evicted.
  size_t capacity = 32;
  /// Fixed retention threshold on a query's observed simulated I/O
  /// seconds. > 0 disables the adaptive quantile below.
  double absolute_threshold_s = 0.0;
  /// Adaptive mode (absolute_threshold_s == 0): retain queries whose
  /// io_s clears this quantile of the io_s of all queries offered so
  /// far (Histogram::Quantile over log-spaced io_s buckets).
  double quantile = 0.99;
  /// Adaptive mode warms up: until this many queries were offered,
  /// everything is retained (the ring still evicts oldest-first).
  size_t min_samples = 64;
};

/// Per-shard predicted-vs-observed cost pair attached to a sharded
/// query's record, so calibration can localize which shard's model is
/// off instead of seeing only the fan-out sum.
struct ShardCostSample {
  size_t shard = 0;
  CostBreakdown predicted;
  double observed_io_s = 0.0;
};

/// One retained outlier query: the full span tree plus the
/// predicted-vs-observed cost breakdown that explains where the time
/// went.
struct SlowQueryRecord {
  /// 0-based index of the query among all queries offered to this log.
  uint64_t query_index = 0;
  /// Root span name ("knn" / "range"); empty if the trace has no root.
  std::string kind;
  /// The retention key: observed.total().
  double observed_io_s = 0.0;
  /// Wall seconds the query waited for admission (sum of `wait_s` over
  /// `queue_wait` spans in the trace; 0 when it bypassed a front end).
  double queue_wait_s = 0.0;
  CostBreakdown predicted;
  CostBreakdown observed;
  /// Per-shard breakdown for sharded queries (empty for single-tree
  /// searches): one predicted-vs-observed pair per queried shard.
  std::vector<ShardCostSample> per_shard;
  /// The query's spans: the subtree of its root, compacted and with
  /// parent ids remapped so the vector is a self-contained trace
  /// (feed it straight to PrintSpanTree / TraceToJson).
  std::vector<SpanRecord> spans;
  /// True when the source tracer dropped spans (its max_spans cap was
  /// hit), so `spans` and `observed` under-report the query. Never
  /// silently under-reported: the flag survives into the JSON dump.
  bool truncated = false;
};

/// Bounded log of outlier queries. Offer() is called once per finished
/// query (IqSearchOptions::slow_log wires it into the search path;
/// concurrent queries may share one log); queries whose
/// observed io_s clears the threshold are retained in a ring.
///
/// Thread-safe (one internal mutex — this is an outlier path, not the
/// per-block hot path). With IQ_OBS_DISABLED all methods are no-ops
/// and Snapshot() is empty.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(SlowLogOptions options = {});
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

#if defined(IQ_OBS_DISABLED)
  void Offer(const std::vector<SpanRecord>&, SpanId, const CostBreakdown&,
             uint64_t, std::vector<ShardCostSample> = {}) {}
  double current_threshold_s() const { return 0; }
  uint64_t offered() const { return 0; }
  uint64_t retained() const { return 0; }
  std::vector<SlowQueryRecord> Snapshot() const { return {}; }
  void Clear() {}
#else
  /// Offers one finished query: `spans` is a tracer snapshot, `root`
  /// the query's root span (kNoSpan treats every span as the query's),
  /// `predicted` the cost model's T_1st/T_2nd/T_3rd for the index, and
  /// `dropped_spans` the tracer's dropped() — non-zero marks the
  /// record truncated. Sharded callers pass `per_shard`
  /// predicted-vs-observed pairs; queue wait is derived from any
  /// `queue_wait` span in the trace.
  void Offer(const std::vector<SpanRecord>& spans, SpanId root,
             const CostBreakdown& predicted, uint64_t dropped_spans,
             std::vector<ShardCostSample> per_shard = {})
      IQ_EXCLUDES(mu_);

  /// The io_s a query currently needs to be retained.
  double current_threshold_s() const IQ_EXCLUDES(mu_);

  uint64_t offered() const IQ_EXCLUDES(mu_);
  uint64_t retained() const IQ_EXCLUDES(mu_);

  /// Retained records, oldest first.
  std::vector<SlowQueryRecord> Snapshot() const IQ_EXCLUDES(mu_);

  void Clear() IQ_EXCLUDES(mu_);

 private:
  double ThresholdLocked() const IQ_REQUIRES(mu_);

  mutable Mutex mu_{IQ_LOCK_RANK(20)};
  std::deque<SlowQueryRecord> ring_ IQ_GUARDED_BY(mu_);
  uint64_t offered_ IQ_GUARDED_BY(mu_) = 0;
  uint64_t retained_ IQ_GUARDED_BY(mu_) = 0;
  /// io_s distribution of every offered query (adaptive threshold).
  Histogram io_s_window_ IQ_GUARDED_BY(mu_);
#endif
  const SlowLogOptions options_;
};

/// One JSON array of retained queries, schema:
/// [{"query_index","kind","observed_io_s","queue_wait_s","truncated",
///   "predicted":{...},"observed":{...},
///   "per_shard":[{"shard","predicted":{...},"observed_io_s"},...],
///   "trace":[...]}, ...].
std::string SlowLogToJson(const std::vector<SlowQueryRecord>& records);

}  // namespace iq::obs

#endif  // IQ_OBS_SLOW_LOG_H_
