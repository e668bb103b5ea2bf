#ifndef IQ_CONCURRENCY_PARALLEL_QUERY_RUNNER_H_
#define IQ_CONCURRENCY_PARALLEL_QUERY_RUNNER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "data/dataset.h"
#include "geom/neighbor.h"

namespace iq {

/// Fans a batch of queries across a fixed-size thread pool against one
/// shared read-only IqTree.
///
/// Concurrency contract (docs/concurrency.md): queries may run
/// concurrently with each other — the mutable state they touch
/// (DiskModel accounting, per-query stats publication) is internally
/// synchronized — but NOT with updates. Insert/Remove/Reoptimize
/// require external exclusion, single-writer style.
///
/// Every query is answered by the same sequential search code a direct
/// IqTree call runs, so batch results are identical to calling
/// KNearestNeighbors/RangeSearch in a loop, at any thread count. Only
/// the I/O accounting interleaves: per-query DiskModel head tracking
/// loses meaning under concurrency (every thread moves the one
/// simulated head), so simulated seek counts are an upper bound there
/// — wall-clock throughput is what bench/micro_parallel measures.
class ParallelQueryRunner {
 public:
  /// `tree` must outlive the runner. `num_threads` workers are spawned
  /// eagerly (minimum 1) and reused across batches.
  ParallelQueryRunner(const IqTree& tree, size_t num_threads);

  size_t num_threads() const { return pool_.num_threads(); }

  /// k nearest neighbors of every row of `queries`; slot i holds the
  /// answer for queries[i], ascending by distance. Fails with the
  /// first per-query error (remaining queries still run to completion).
  Result<std::vector<std::vector<Neighbor>>> KnnBatch(
      const Dataset& queries, size_t k, const IqSearchOptions& options = {});

  /// Range search of every row of `queries` with the given radius.
  Result<std::vector<std::vector<Neighbor>>> RangeBatch(
      const Dataset& queries, double radius,
      const IqSearchOptions& options = {});

 private:
  /// Runs `run_one(i)` for every i in [0, n) on the pool and collapses
  /// the per-query statuses to the first failure.
  template <typename RunOne>
  Status RunAll(size_t n, const RunOne& run_one);

  const IqTree& tree_;
  ThreadPool pool_;
};

}  // namespace iq

#endif  // IQ_CONCURRENCY_PARALLEL_QUERY_RUNNER_H_
