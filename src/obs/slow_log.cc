#include "obs/slow_log.h"

#include <array>
#include <span>
#include <utility>

#include "obs/json.h"

namespace iq::obs {

namespace {

#if !defined(IQ_OBS_DISABLED)
/// Log-spaced io_s buckets for the adaptive threshold: simulated query
/// times on the default disk span ~1 ms (cache hit) to tens of seconds
/// (degenerate scan).
constexpr std::array<double, 16> kIoSecondsBounds = {
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,
    0.5,   1.0,   2.0,   5.0,  10.0, 20.0, 50.0, 100.0};
#endif

}  // namespace

#if defined(IQ_OBS_DISABLED)

SlowQueryLog::SlowQueryLog(SlowLogOptions options) : options_(options) {}

#else

SlowQueryLog::SlowQueryLog(SlowLogOptions options)
    : io_s_window_(std::span<const double>(kIoSecondsBounds)),
      options_(options) {}

double SlowQueryLog::ThresholdLocked() const {
  if (options_.absolute_threshold_s > 0.0) {
    return options_.absolute_threshold_s;
  }
  if (offered_ < options_.min_samples) return 0.0;
  return io_s_window_.Quantile(options_.quantile);
}

void SlowQueryLog::Offer(SlowQueryRecord query, const QueryTracer* tracer) {
  query.observed_io_s = query.observed.total();
  MutexLock lock(&mu_);
  const double threshold = ThresholdLocked();
  query.query_index = offered_++;
  io_s_window_.Observe(query.observed_io_s);
  if (query.observed_io_s < threshold) return;
  if (tracer != nullptr) {
    query.spans = tracer->Snapshot();
    query.truncated = tracer->dropped() > 0;
  }
  ring_.push_back(std::move(query));
  retained_ += 1;
  while (ring_.size() > options_.capacity) ring_.pop_front();
}

double SlowQueryLog::current_threshold_s() const {
  MutexLock lock(&mu_);
  return ThresholdLocked();
}

uint64_t SlowQueryLog::offered() const {
  MutexLock lock(&mu_);
  return offered_;
}

uint64_t SlowQueryLog::retained() const {
  MutexLock lock(&mu_);
  return retained_;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  MutexLock lock(&mu_);
  return {ring_.begin(), ring_.end()};
}

void SlowQueryLog::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  offered_ = 0;
  retained_ = 0;
  io_s_window_.Reset();
}

#endif  // IQ_OBS_DISABLED

namespace {

void WriteBreakdown(JsonWriter& w, const CostBreakdown& b) {
  w.BeginObject();
  w.Key("t1").Double(b.t1);
  w.Key("t2").Double(b.t2);
  w.Key("t3").Double(b.t3);
  w.Key("total").Double(b.total());
  w.EndObject();
}

}  // namespace

std::string SlowLogToJson(const std::vector<SlowQueryRecord>& records) {
  JsonWriter w;
  w.BeginArray();
  for (const SlowQueryRecord& record : records) {
    w.BeginObject();
    w.Key("query_index").Uint(record.query_index);
    w.Key("kind").String(record.kind);
    w.Key("observed_io_s").Double(record.observed_io_s);
    w.Key("queue_wait_s").Double(record.queue_wait_s);
    w.Key("truncated").Bool(record.truncated);
    w.Key("predicted");
    WriteBreakdown(w, record.predicted);
    w.Key("observed");
    WriteBreakdown(w, record.observed);
    w.Key("per_shard").BeginArray();
    for (const ShardCostSample& sample : record.per_shard) {
      w.BeginObject();
      w.Key("shard").Uint(sample.shard);
      w.Key("predicted");
      WriteBreakdown(w, sample.predicted);
      w.Key("observed_io_s").Double(sample.observed_io_s);
      w.EndObject();
    }
    w.EndArray();
    w.Key("trace").Raw(TraceToJson(record.spans));
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

}  // namespace iq::obs
