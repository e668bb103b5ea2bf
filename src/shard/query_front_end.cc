#include "shard/query_front_end.h"

#include <chrono>

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
  MutexLock lock(&mu_);
  if (in_flight_ >= options_.max_in_flight) {
    if (queued_ >= options_.max_queued) {
      rejected_->Increment();
      return Status::Unavailable("query queue full (" +
                                 std::to_string(in_flight_) + " in flight, " +
                                 std::to_string(queued_) + " queued)");
    }
    ++queued_;
    queue_depth_gauge_->Set(static_cast<double>(queued_));
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
          return Status::DeadlineExceeded(
              "query deadline expired while queued");
        }
      } else {
        cv_.Wait();
      }
    }
    --queued_;
    queue_depth_gauge_->Set(static_cast<double>(queued_));
  }
  ++in_flight_;
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  admitted_->Increment();
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
  obs::QueryTracer* const tracer = effective.tracer;
  obs::ScopedSpan frontend(tracer, "frontend", effective.parent_span);

  Status admit;
  double wait_s = 0;
  {
    obs::ScopedSpan queue(tracer, "queue_wait", frontend.id());
    admit = Admit(start, effective.deadline_s);
    wait_s = ElapsedSeconds(start);
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
  // A query turned away here never reaches the searcher; its record is
  // the time it waited.
  const auto turned_away = [&](const Status& status) {
    if (options.stats != nullptr) {
      *options.stats = ShardQueryStats{};
      options.stats->queue_wait_s = wait_s;
    }
    return status;
  };
  if (!admit.ok()) return turned_away(admit);
  AdmissionSlot slot{this};

  // The time spent queued counts against the budget.
  if (effective.deadline_s > 0) {
    const double remaining = effective.deadline_s - ElapsedSeconds(start);
    if (remaining <= 0) {
      deadline_exceeded_->Increment();
      return turned_away(Status::DeadlineExceeded(
          "query deadline expired before execution"));
    }
    effective.deadline_s = remaining;
  }
  effective.parent_span = frontend.id();
  Result<T> result = search(effective, wait_s);
  if (!result.ok() && result.status().IsDeadlineExceeded()) {
    deadline_exceeded_->Increment();
  }
  return result;
}

Result<std::vector<Neighbor>> QueryFrontEnd::KNearestNeighbors(
    PointView q, size_t k, const ShardedSearchOptions& options) const {
  return Run<std::vector<Neighbor>>(
      options, [&](const ShardedSearchOptions& effective, double wait_s) {
    return searcher_.KNearestNeighbors(q, k, effective, wait_s);
  });
}

Result<std::vector<Neighbor>> QueryFrontEnd::RangeSearch(
    PointView q, double radius, const ShardedSearchOptions& options) const {
  return Run<std::vector<Neighbor>>(
      options, [&](const ShardedSearchOptions& effective, double wait_s) {
    return searcher_.RangeSearch(q, radius, effective, wait_s);
  });
}

Result<std::vector<PointId>> QueryFrontEnd::WindowQuery(
    const Mbr& window, const ShardedSearchOptions& options) const {
  return Run<std::vector<PointId>>(
      options, [&](const ShardedSearchOptions& effective, double wait_s) {
    return searcher_.WindowQuery(window, effective, wait_s);
  });
}

}  // namespace iq
