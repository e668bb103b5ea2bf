#ifndef IQ_SHARD_SHARDED_BULK_LOADER_H_
#define IQ_SHARD_SHARDED_BULK_LOADER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/contract.h"
#include "common/result.h"
#include "common/status.h"
#include "core/iq_tree.h"
#include "geom/mbr.h"
#include "geom/point.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "shard/shard_manifest.h"
#include "shard/shard_planner.h"

namespace iq {

/// Bulk load of a sharded IQ-tree layout: points are Add()ed one at a
/// time (from any producer — a file reader, a generator), the loader
/// routes each to its shard via ShardPlanner and buffers it in that
/// shard's RAM buffer. Finish() builds every shard once with
/// IqTree::Build over its rows in arrival order (the §3.3 partitioning
/// and §3.5 optimizer under `Options::tree`), frees each buffer as soon
/// as its shard is built, and writes the ShardManifest the searcher
/// opens. Memory is O(N) points until Finish, released shard by shard.
///
/// Point ids are assigned by arrival order (0, 1, 2, ...), identical to
/// the ids a single IqTree::Build over the same stream would assign —
/// which is what makes sharded query results bit-comparable to a
/// single-tree run (tests/sharded_searcher_test.cc).
///
/// Single-writer, like every update path in this library: one thread
/// drives Add/Finish, no internal locking (docs/concurrency.md).
class ShardedBulkLoader {
 public:
  struct Options {
    size_t num_shards = 4;
    ShardPlan plan = ShardPlan::kRoundRobin;
    /// Partition dimension for ShardPlan::kRankPartition.
    size_t plan_dim = 0;
    IqTree::Options tree;
    DiskParameters disk;
  };

  IQ_TYPESTATE("loading");

  /// The dimensionality comes from the first Add; no file is written
  /// before Finish. The two-argument form uses default Options
  /// (overload rather than `= {}`: GCC rejects brace default arguments
  /// of nested classes, bug 88165).
  ShardedBulkLoader(Storage& storage, std::string base_name);
  ShardedBulkLoader(Storage& storage, std::string base_name,
                    const Options& options);

  /// Routes one point to its shard. All points must share one
  /// dimensionality; point ids follow arrival order.
  Status Add(PointView p) IQ_TS_REQUIRES("loading");

  /// Builds every shard (an empty shard gets an empty tree), writes
  /// and returns the manifest (stored as `base_name`). At least one
  /// point must have been added. The loader accepts no further Adds.
  Result<ShardManifest> Finish() IQ_TS_TRANSITION("loading", "finished");

  uint64_t points_added() const { return next_id_; }

 private:
  /// One shard's rows in arrival order, held until Finish builds it.
  struct ShardState {
    std::vector<PointId> ids;
    std::vector<float> coords;
    Mbr bounds;
  };

  Storage& storage_;
  std::string base_;
  Options options_;
  ShardPlanner planner_;
  size_t dims_ = 0;
  uint64_t next_id_ = 0;
  bool finished_ = false;
  std::vector<ShardState> shards_;
};

}  // namespace iq

#endif  // IQ_SHARD_SHARDED_BULK_LOADER_H_
