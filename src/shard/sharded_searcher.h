#ifndef IQ_SHARD_SHARDED_SEARCHER_H_
#define IQ_SHARD_SHARDED_SEARCHER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contract.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "geom/mbr.h"
#include "geom/metrics.h"
#include "geom/neighbor.h"
#include "geom/point.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "shard/shard_manifest.h"

namespace iq {

struct ShardQueryStats;

/// Per-query options of the sharded facade — the sharded analogue of
/// IqSearchOptions, plus a deadline. Every per-shard search uses the
/// §2.1 batched page access.
struct ShardedSearchOptions {
  /// Optional trace sink shared by all shards of the query. The query
  /// records ONE stitched span tree: a `sharded_*` root, one `wave<i>`
  /// child per fan-out wave, and under each wave a `shard<i>` span per
  /// queried shard carrying that shard's whole IQ-tree subtree (via
  /// IqSearchOptions::parent_span) plus `io_s`/`mindist` attrs. Pruned
  /// shards appear as zero-cost `shard<i>` spans annotated `pruned=1`
  /// with the MINDIST-vs-kth evidence (docs/observability.md, "Sharded
  /// queries").
  obs::QueryTracer* tracer = nullptr;
  /// When `tracer` is set, the `sharded_*` root opens under this span
  /// — QueryFrontEnd grafts the whole query under its `frontend` span.
  obs::SpanId parent_span = obs::kNoSpan;
  /// Optional slow-query sink for kNN and range queries: the finished
  /// query is offered once with its own observed breakdown (the sum of
  /// its shards' IqQueryStats::observed), the summed prediction, its
  /// queue wait and per-shard predicted-vs-observed samples, plus
  /// `tracer`'s spans when it is set. Window queries are never offered:
  /// the single tree's WindowQuery splits no cost by level, so the
  /// record would carry 0 s of observed I/O and drag the log's adaptive
  /// threshold down.
  obs::SlowQueryLog* slow_log = nullptr;
  /// Wall-clock budget in seconds from query start; 0 disables. The
  /// deadline is checked between fan-out waves (a running per-shard
  /// search is never interrupted); an expired query returns
  /// Status::DeadlineExceeded and no partial results.
  double deadline_s = 0;
  /// Optional result sink: when set, the query writes its own
  /// ShardQueryStats here before returning (also when it fails after
  /// its argument checks, or QueryFrontEnd turns it away). An output
  /// like `tracer`, not a behaviour switch.
  ShardQueryStats* stats = nullptr;
};

/// Aggregated observability counters of one sharded query, the
/// facade-level analogue of IqQueryStats.
struct ShardQueryStats {
  size_t shards_total = 0;
  /// Shards whose IQ-tree actually ran the query.
  size_t shards_queried = 0;
  /// Shards skipped by manifest-MBR pruning (MINDIST >= current kth
  /// distance / radius, window disjointness, or empty shards).
  size_t shards_pruned = 0;
  /// Sums of the per-shard IqQueryStats. For window queries only `io`
  /// is non-zero: the single tree's WindowQuery counts nothing else
  /// either.
  IqQueryStats totals;
  /// Simulated I/O seconds: sum over queried shards, and the largest
  /// single shard (the critical path of a perfectly parallel gather).
  /// Each shard's share is its own query's io.io_time_s.
  double io_s_sum = 0;
  double io_s_max = 0;
  /// Spans the query's tracer dropped at its cap — sharded fan-out
  /// multiplies span volume, so this propagates per-shard truncation
  /// into the aggregate (and into the slow log's truncated flag).
  uint64_t dropped_spans = 0;
  bool truncated = false;
  /// Wall seconds the query waited for admission in a QueryFrontEnd,
  /// which measures it; 0 when the searcher was called directly. A
  /// query the front end turns away (rejected, or expired before it
  /// ran) reports only this field.
  double queue_wait_s = 0;
};

/// Scatter-gather query facade over the shards of a ShardManifest:
/// opens every shard's IQ-tree (each with its own DiskModel), fans
/// queries out on an internal ThreadPool, prunes shards by manifest-MBR
/// MINDIST against the current global kth distance, and merges
/// per-shard results into one exact answer.
///
/// Correctness contract (tests/sharded_searcher_test.cc): results are
/// bit-identical to a single IqTree built over the same point stream —
/// kNN and range ascending by (distance, id), window ids ascending.
///
/// Thread-safety: const queries are safe concurrently (every mutable
/// piece is internally synchronized); each query's stats go to its own
/// ShardedSearchOptions::stats sink.
class ShardedSearcher {
 public:
  struct Options {
    /// Fan-out width (ThreadPool workers; minimum 1). Result contents
    /// never depend on it, only scheduling does.
    size_t threads = 4;
    /// Disk parameters for every per-shard DiskModel.
    DiskParameters disk;
  };

  /// Opens every shard listed in `manifest` from `storage`. The
  /// two-argument form uses default Options (overload rather than
  /// `= {}`: GCC rejects brace default arguments of nested classes,
  /// bug 88165).
  static Result<std::unique_ptr<ShardedSearcher>> Open(
      Storage& storage, const ShardManifest& manifest);
  static Result<std::unique_ptr<ShardedSearcher>> Open(
      Storage& storage, const ShardManifest& manifest,
      const Options& options);

  ShardedSearcher(const ShardedSearcher&) = delete;
  ShardedSearcher& operator=(const ShardedSearcher&) = delete;

  /// Exact k nearest neighbors, ascending by (distance, id).
  Result<std::vector<Neighbor>> KNearestNeighbors(
      PointView q, size_t k, const ShardedSearchOptions& options = {}) const;

  /// All points within `radius` of `q`, ascending by (distance, id).
  Result<std::vector<Neighbor>> RangeSearch(
      PointView q, double radius,
      const ShardedSearchOptions& options = {}) const;

  /// All point ids inside the window (inclusive bounds), ascending.
  Result<std::vector<PointId>> WindowQuery(
      const Mbr& window, const ShardedSearchOptions& options = {}) const;

  /// Sum of the per-shard cost-model predictions — the "predicted"
  /// side each slow-log offer carries.
  const obs::CostBreakdown& predicted_cost() const { return predicted_; }

  size_t num_shards() const { return shards_.size(); }
  size_t dims() const { return dims_; }
  Metric metric() const { return metric_; }
  uint64_t size() const { return total_points_; }
  const IqTree& shard_tree(size_t shard) const { return *shards_[shard].tree; }

 private:
  /// QueryFrontEnd runs queries through the overloads below, which
  /// carry the queue wait it measured into the query's stats and
  /// slow-log record.
  friend class QueryFrontEnd;

  Result<std::vector<Neighbor>> KNearestNeighbors(
      PointView q, size_t k, const ShardedSearchOptions& options,
      double queue_wait_s) const;
  Result<std::vector<Neighbor>> RangeSearch(
      PointView q, double radius, const ShardedSearchOptions& options,
      double queue_wait_s) const;
  Result<std::vector<PointId>> WindowQuery(
      const Mbr& window, const ShardedSearchOptions& options,
      double queue_wait_s) const;

  struct Shard {
    std::unique_ptr<DiskModel> disk;
    std::unique_ptr<IqTree> tree;
    Mbr bounds;
    uint64_t points = 0;
    obs::Counter* queries = nullptr;
    /// This shard's own cost-model prediction (predicted_ is the sum),
    /// paired with observed io_s in slow-log records so calibration
    /// can localize a mispredicting shard.
    obs::CostBreakdown predicted;
  };

  /// The `sharded_*` root span and its attribute of one query kind.
  /// Defined in the .cc.
  struct FanOut;

  ShardedSearcher(const ShardManifest& manifest, const Options& options);

  /// The one scatter–gather loop behind every query kind. Per shard,
  /// `screen(bounds)` keeps or prunes it with its MINDIST; survivors
  /// run in MINDIST order, in waves of the pool width, through
  /// `search(tree, shard_options)` (returns the shard's hits and fills
  /// the shard_options.stats sink); each shard's hits are folded by
  /// `merge(hits)`, which returns the current pruning bound (remaining
  /// shards with MINDIST >= it are skipped). Tracing, deadline, stats
  /// (with `queue_wait_s`), wave metrics and the slow-log offer happen
  /// here once for all kinds. Defined in the .cc.
  template <typename Hit, typename Screen, typename Search, typename Merge>
  Status ScatterGather(const FanOut& fan_out,
                       const ShardedSearchOptions& options,
                       double queue_wait_s, const Screen& screen,
                       const Search& search, const Merge& merge) const;

  const size_t dims_;
  const Metric metric_;
  const uint64_t total_points_;
  std::vector<Shard> shards_
      IQ_UNGUARDED("filled in Open, immutable afterwards; per-shard state is internally synchronized");
  std::unique_ptr<ThreadPool> pool_
      IQ_UNGUARDED("internally synchronized");
  obs::CostBreakdown predicted_
      IQ_UNGUARDED("written once in Open, read-only afterwards");
  obs::Counter* const fanout_;
  obs::Counter* const queried_;
  obs::Counter* const pruned_;
  obs::Counter* const deadline_;
  obs::Counter* const waves_;
  obs::Histogram* const wave_width_;
  obs::Histogram* const wave_seconds_;
};

}  // namespace iq

#endif  // IQ_SHARD_SHARDED_SEARCHER_H_
