#include "shard/query_front_end.h"

#include <chrono>
#include <memory>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metric_names.h"

namespace iq {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kQueueWaitBounds[] = {1e-5, 1e-4, 1e-3, 1e-2,
                                       0.1,  1.0,  10.0};

double ElapsedSeconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

QueryFrontEnd::QueryFrontEnd(const ShardedSearcher& searcher)
    : QueryFrontEnd(searcher, Options()) {}

QueryFrontEnd::QueryFrontEnd(const ShardedSearcher& searcher,
                             const Options& options)
    : searcher_(searcher),
      options_(options),
      admitted_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kFrontendAdmittedTotal)),
      rejected_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kFrontendRejectedTotal)),
      deadline_exceeded_(obs::MetricRegistry::Global().GetCounter(
          obs::metric::kFrontendDeadlineExceededTotal)),
      in_flight_gauge_(obs::MetricRegistry::Global().GetGauge(
          obs::metric::kFrontendInFlight)),
      queue_depth_gauge_(obs::MetricRegistry::Global().GetGauge(
          obs::metric::kFrontendQueueDepth)),
      queue_wait_(obs::MetricRegistry::Global().GetHistogram(
          obs::metric::kFrontendQueueWaitSeconds, kQueueWaitBounds)),
      cv_(&mu_) {}

Status QueryFrontEnd::Admit(Clock::time_point start,
                            double deadline_s) const {
  auto& recorder = obs::FlightRecorder::Global();
  MutexLock lock(&mu_);
  if (in_flight_ >= options_.max_in_flight) {
    if (queued_ >= options_.max_queued) {
      rejected_->Increment();
      recorder.Record(obs::FlightEventType::kAdmissionReject,
                      static_cast<uint32_t>(queued_),
                      static_cast<double>(in_flight_));
      return Status::Unavailable("query queue full (" +
                                 std::to_string(in_flight_) + " in flight, " +
                                 std::to_string(queued_) + " queued)");
    }
    ++queued_;
    queue_depth_gauge_->Set(static_cast<double>(queued_));
    recorder.Record(obs::FlightEventType::kQueueEnter,
                    static_cast<uint32_t>(queued_));
    while (in_flight_ >= options_.max_in_flight) {
      if (deadline_s > 0) {
        const double remaining = deadline_s - ElapsedSeconds(start);
        if (remaining <= 0 || !cv_.WaitFor(remaining)) {
          // Timed out (or spuriously woken past the budget with no
          // free slot): leave the queue and fail the query.
          if (in_flight_ < options_.max_in_flight) break;
          --queued_;
          queue_depth_gauge_->Set(static_cast<double>(queued_));
          deadline_exceeded_->Increment();
          if (obs::kEnabled) {
            recorder.Record(obs::FlightEventType::kDeadlineExceeded,
                            static_cast<uint32_t>(queued_),
                            ElapsedSeconds(start));
          }
          return Status::DeadlineExceeded(
              "query deadline expired while queued");
        }
      } else {
        cv_.Wait();
      }
    }
    --queued_;
    queue_depth_gauge_->Set(static_cast<double>(queued_));
    if (obs::kEnabled) {
      recorder.Record(obs::FlightEventType::kQueueExit,
                      static_cast<uint32_t>(queued_),
                      ElapsedSeconds(start));
    }
  }
  ++in_flight_;
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  admitted_->Increment();
  if (obs::kEnabled) {
    recorder.Record(obs::FlightEventType::kAdmissionAccept,
                    static_cast<uint32_t>(in_flight_),
                    ElapsedSeconds(start));
  }
  return Status::OK();
}

void QueryFrontEnd::Release() const {
  MutexLock lock(&mu_);
  --in_flight_;
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  cv_.Signal();
}

template <typename T, typename Search>
Result<T> QueryFrontEnd::Run(const ShardedSearchOptions& options,
                             const Search& search) const {
  const Clock::time_point start = Clock::now();
  ShardedSearchOptions effective = options;
  if (effective.deadline_s <= 0) {
    effective.deadline_s = options_.default_deadline_s;
  }
  // A slow-log-only query (no caller tracer) gets a private tracer,
  // handed to the searcher as if it were the caller's: its sharded_*
  // root then stitches under the frontend span, and the searcher's
  // slow-log offer sees the frontend spans too.
  std::unique_ptr<obs::QueryTracer> owned;
  if (effective.tracer == nullptr && effective.slow_log != nullptr &&
      obs::kEnabled) {
    owned = std::make_unique<obs::QueryTracer>(kShardedTracerMaxSpans);
    effective.tracer = owned.get();
  }
  obs::QueryTracer* const tracer = effective.tracer;
  obs::ScopedSpan frontend(tracer, "frontend", effective.parent_span);

  Status admit;
  {
    obs::ScopedSpan queue(tracer, "queue_wait", frontend.id());
    admit = Admit(start, effective.deadline_s);
    const double wait_s = obs::kEnabled ? ElapsedSeconds(start) : 0.0;
    queue.AddAttr("wait_s", wait_s);
    queue_wait_->Observe(wait_s);
  }
  {
    obs::ScopedSpan decision(tracer, "admission", frontend.id());
    decision.AddAttr("admitted", admit.ok() ? 1 : 0);
    decision.AddAttr("rejected", admit.IsUnavailable() ? 1 : 0);
    decision.AddAttr("deadline_exceeded",
                     admit.IsDeadlineExceeded() ? 1 : 0);
  }
  if (!admit.ok()) {
    // The post-mortem for a query that never ran: why was it turned
    // away, and what was the front end doing at the time.
    obs::FlightRecorder::Global().TriggerDump(
        admit.IsUnavailable() ? "rejected" : "deadline_exceeded");
    return admit;
  }
  AdmissionSlot slot{this};

  // The time spent queued counts against the budget.
  if (effective.deadline_s > 0) {
    const double remaining = effective.deadline_s - ElapsedSeconds(start);
    if (remaining <= 0) {
      deadline_exceeded_->Increment();
      if (obs::kEnabled) {
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kDeadlineExceeded, 0,
            ElapsedSeconds(start));
        obs::FlightRecorder::Global().TriggerDump("deadline_exceeded");
      }
      return Status::DeadlineExceeded(
          "query deadline expired before execution");
    }
    effective.deadline_s = remaining;
  }
  effective.parent_span = frontend.id();
  Result<T> result = search(effective);
  if (!result.ok() && result.status().IsDeadlineExceeded()) {
    deadline_exceeded_->Increment();
  }
  return result;
}

Result<std::vector<Neighbor>> QueryFrontEnd::KNearestNeighbors(
    PointView q, size_t k, const ShardedSearchOptions& options) const {
  return Run<std::vector<Neighbor>>(
      options, [&](const ShardedSearchOptions& effective) {
    return searcher_.KNearestNeighbors(q, k, effective);
  });
}

Result<std::vector<Neighbor>> QueryFrontEnd::RangeSearch(
    PointView q, double radius, const ShardedSearchOptions& options) const {
  return Run<std::vector<Neighbor>>(
      options, [&](const ShardedSearchOptions& effective) {
    return searcher_.RangeSearch(q, radius, effective);
  });
}

Result<std::vector<PointId>> QueryFrontEnd::WindowQuery(
    const Mbr& window, const ShardedSearchOptions& options) const {
  return Run<std::vector<PointId>>(
      options, [&](const ShardedSearchOptions& effective) {
    return searcher_.WindowQuery(window, effective);
  });
}

}  // namespace iq
