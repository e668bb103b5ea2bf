#ifndef IQ_OBS_TRACE_H_
#define IQ_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "common/mutex.h"

namespace iq::obs {

using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = 0xFFFFFFFF;

/// One recorded operation of a traced query: a node of the span tree.
///
/// Timestamps come in two flavors. Logical timestamps (`seq_begin`,
/// `seq_end`) are a per-tracer sequence number bumped by every Begin/
/// End, so the recorded order of operations is exact and deterministic
/// — two runs of the same query produce identical logical traces.
/// Wall-clock nanoseconds (steady clock, relative to tracer creation)
/// carry real elapsed time and naturally differ run to run.
struct SpanRecord {
  std::string name;
  SpanId parent = kNoSpan;
  uint64_t seq_begin = 0;
  uint64_t seq_end = 0;  // 0 while the span is open
  int64_t wall_begin_ns = 0;
  int64_t wall_end_ns = 0;
  /// Numeric attributes (counts, block numbers, simulated seconds).
  std::vector<std::pair<std::string, double>> attrs;
};

/// Structured per-query trace sink. One tracer records one query (or
/// one batch of queries — roots with parent kNoSpan delimit them).
///
/// Thread-safe: all methods take an internal mutex, so one tracer may
/// be shared by the shard workers of a sharded query. Tracing
/// is opt-in per query (IqSearchOptions::tracer); a null tracer costs
/// the hot path exactly one pointer test. With IQ_OBS_DISABLED all
/// methods are no-ops and BeginSpan returns kNoSpan.
///
/// The span count is capped (`max_spans`, default 64k): once reached,
/// further Begin calls are counted in dropped() instead of recorded —
/// a runaway query degrades the trace, never memory.
class QueryTracer {
 public:
  explicit QueryTracer(size_t max_spans = 1 << 16)
      : max_spans_(max_spans),
        epoch_(std::chrono::steady_clock::now()) {}

  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

#if defined(IQ_OBS_DISABLED)
  SpanId BeginSpan(std::string_view, SpanId = kNoSpan) { return kNoSpan; }
  void EndSpan(SpanId) {}
  void AddAttr(SpanId, std::string_view, double) {}
  std::vector<SpanRecord> Snapshot() const { return {}; }
  uint64_t dropped() const { return 0; }
  void Clear() {}
#else
  /// Opens a span under `parent` (kNoSpan for a root) and returns its
  /// id, or kNoSpan if the cap was hit. Names may be built on the fly
  /// ("wave0", "shard3"); the tracer copies them.
  SpanId BeginSpan(std::string_view name, SpanId parent = kNoSpan)
      IQ_EXCLUDES(mu_);

  void EndSpan(SpanId id) IQ_EXCLUDES(mu_);

  /// Attaches (or accumulates into) numeric attribute `key` of an open
  /// or closed span. Repeated keys add up, so loops can fold per-item
  /// contributions into one attribute.
  void AddAttr(SpanId id, std::string_view key, double value)
      IQ_EXCLUDES(mu_);

  /// Copies the spans recorded so far (indices == SpanIds).
  std::vector<SpanRecord> Snapshot() const IQ_EXCLUDES(mu_);

  /// Spans not recorded because the cap was reached.
  uint64_t dropped() const IQ_EXCLUDES(mu_);

  void Clear() IQ_EXCLUDES(mu_);
#endif

 private:
#if !defined(IQ_OBS_DISABLED)
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  mutable Mutex mu_{IQ_LOCK_RANK(40)};
  std::vector<SpanRecord> spans_ IQ_GUARDED_BY(mu_);
  uint64_t next_seq_ IQ_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ IQ_GUARDED_BY(mu_) = 0;
#endif
  const size_t max_spans_;
  const std::chrono::steady_clock::time_point epoch_;
};

/// RAII span that tolerates a null tracer (the untraced default).
class ScopedSpan {
 public:
  ScopedSpan(QueryTracer* tracer, std::string_view name,
             SpanId parent = kNoSpan)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->BeginSpan(name, parent);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr && id_ != kNoSpan) tracer_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

  void AddAttr(std::string_view key, double value) {
    if (tracer_ != nullptr && id_ != kNoSpan) {
      tracer_->AddAttr(id_, key, value);
    }
  }

 private:
  QueryTracer* tracer_;
  SpanId id_ = kNoSpan;
};

/// Sums attribute `key` over all spans named `name` (helper for
/// consistency checks against ad-hoc counters). When `key` is null,
/// counts the spans instead.
double AggregateSpans(const std::vector<SpanRecord>& spans,
                      std::string_view name, const char* key);

/// Like AggregateSpans, but matches every span whose name *starts
/// with* `prefix` — the stitched sharded trace names per-shard and
/// per-wave spans dynamically ("shard0", "shard5", "wave1"), and the
/// consistency check sums across all of them.
double AggregateSpansByPrefix(const std::vector<SpanRecord>& spans,
                              std::string_view prefix, const char* key);

/// Human-readable indented span tree: children under parents, logical
/// interval, wall-clock microseconds and attributes per line.
void PrintSpanTree(const std::vector<SpanRecord>& spans, std::ostream& os);

/// One JSON array of span objects: {"id","name","parent","seq":[b,e],
/// "wall_ns":[b,e],"attrs":{...}}; parent is null for roots.
std::string TraceToJson(const std::vector<SpanRecord>& spans);

}  // namespace iq::obs

#endif  // IQ_OBS_TRACE_H_
