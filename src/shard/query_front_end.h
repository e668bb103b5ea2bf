#ifndef IQ_SHARD_QUERY_FRONT_END_H_
#define IQ_SHARD_QUERY_FRONT_END_H_

#include <chrono>
#include <cstddef>
#include <vector>

#include "common/contract.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "geom/mbr.h"
#include "geom/neighbor.h"
#include "geom/point.h"
#include "obs/metrics.h"
#include "shard/sharded_searcher.h"

namespace iq {

/// Admission control in front of a ShardedSearcher: at most
/// `max_in_flight` queries execute concurrently; the next `max_queued`
/// callers wait their turn (bounded queue); everyone else is rejected
/// immediately with Status::Unavailable (backpressure, reject-on-full).
/// A per-query deadline covers the whole stay — queue wait plus
/// execution — and expiry anywhere returns Status::DeadlineExceeded.
///
/// Admission is not FIFO: when a slot frees, any waiting caller may
/// take it (CondVar wakeup order). The bounds hold regardless; a
/// fairness queue is future work.
///
/// All admission outcomes are counted in the metric registry
/// (iq_frontend_*, docs/observability.md); in_flight/queue_depth are
/// exported as gauges.
///
/// Thread-safe: any number of threads may call the query methods
/// concurrently on one front end.
class QueryFrontEnd {
 public:
  struct Options {
    /// Concurrent queries allowed past admission. 0 is legal and means
    /// "admit nothing": every query queues until its deadline expires
    /// or is rejected — the deterministic setting the backpressure
    /// tests use.
    size_t max_in_flight = 4;
    /// Callers allowed to wait for a slot; the max_queued + 1st
    /// concurrent caller is rejected with Unavailable.
    size_t max_queued = 16;
    /// Deadline applied when a query does not carry its own
    /// (ShardedSearchOptions::deadline_s == 0); 0 disables.
    double default_deadline_s = 0;
  };

  /// The searcher must outlive the front end. The one-argument form
  /// uses default Options (overload rather than `= {}`: GCC rejects
  /// brace default arguments of nested classes, bug 88165).
  explicit QueryFrontEnd(const ShardedSearcher& searcher);
  QueryFrontEnd(const ShardedSearcher& searcher, const Options& options);

  QueryFrontEnd(const QueryFrontEnd&) = delete;
  QueryFrontEnd& operator=(const QueryFrontEnd&) = delete;

  Result<std::vector<Neighbor>> KNearestNeighbors(
      PointView q, size_t k, const ShardedSearchOptions& options = {}) const;
  Result<std::vector<Neighbor>> RangeSearch(
      PointView q, double radius,
      const ShardedSearchOptions& options = {}) const;
  Result<std::vector<PointId>> WindowQuery(
      const Mbr& window, const ShardedSearchOptions& options = {}) const;

  size_t in_flight() const IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return in_flight_;
  }
  size_t queued() const IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return queued_;
  }

 private:
  /// The one admission path behind every query kind: opens the
  /// `frontend` root span, wraps Admit in a `queue_wait` child, records
  /// the decision in an `admission` child, applies the default deadline
  /// and charges the queue wait against it, then calls
  /// `search(options, queue_wait_s)` with the stitched trace (tracer +
  /// parent_span) and the remaining budget. Any admission failure is
  /// the query's result, and its stats sink then holds only the queue
  /// wait. Defined in the .cc.
  template <typename T, typename Search>
  Result<T> Run(const ShardedSearchOptions& options,
                const Search& search) const IQ_EXCLUDES(mu_);

  /// Blocks until admitted (slot free), rejected (queue full), or the
  /// deadline expires while queued. `start` anchors the deadline at
  /// query arrival so queue wait counts against the budget.
  Status Admit(std::chrono::steady_clock::time_point start,
               double deadline_s) const IQ_EXCLUDES(mu_);
  void Release() const IQ_EXCLUDES(mu_);

  /// RAII in-flight slot: Release() on every exit path of a query.
  struct AdmissionSlot {
    const QueryFrontEnd* front_end;
    ~AdmissionSlot() { front_end->Release(); }
  };

  const ShardedSearcher& searcher_;
  const Options options_;
  obs::Counter* const admitted_;
  obs::Counter* const rejected_;
  obs::Counter* const deadline_exceeded_;
  obs::Gauge* const in_flight_gauge_;
  obs::Gauge* const queue_depth_gauge_;
  obs::Histogram* const queue_wait_;

  mutable Mutex mu_{IQ_LOCK_RANK(4)};
  mutable CondVar cv_;  // signaled when an in-flight slot frees
  mutable size_t in_flight_ IQ_GUARDED_BY(mu_) = 0;
  mutable size_t queued_ IQ_GUARDED_BY(mu_) = 0;
};

}  // namespace iq

#endif  // IQ_SHARD_QUERY_FRONT_END_H_
