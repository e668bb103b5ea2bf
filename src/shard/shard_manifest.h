#ifndef IQ_SHARD_SHARD_MANIFEST_H_
#define IQ_SHARD_SHARD_MANIFEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/mbr.h"
#include "geom/metrics.h"
#include "io/storage.h"
#include "shard/shard_planner.h"

namespace iq {

/// One shard as recorded in the manifest: the base name of its IQ-tree
/// index files, its point count, and the tight MBR of its points (the
/// pruning geometry — an empty shard records Mbr::Empty, which the
/// searcher skips without consulting MINDIST).
struct ShardInfo {
  std::string name;
  uint64_t points = 0;
  Mbr bounds;
};

/// Versioned on-disk description of a sharded index: which IQ-trees
/// hold the data, how points were assigned to them, and per-shard
/// pruning geometry. The manifest is the single artifact a searcher
/// needs to open the whole layout (docs/sharding.md has the format).
///
/// File format (version 1, little-endian, all fields packed):
///   u32 magic "IQSM"    u32 version      u32 dims      u32 metric
///   u32 plan            u32 plan_dim     u32 num_shards u32 reserved
///   u64 total_points
///   then per shard:
///     u32 name_len, name bytes, u64 points,
///     dims f32 lower bounds, dims f32 upper bounds
class ShardManifest {
 public:
  ShardManifest() = default;
  ShardManifest(size_t dims, Metric metric, ShardPlan plan, size_t plan_dim);

  /// Appends a shard description. `info.bounds` must be Empty(dims) or
  /// have exactly dims() dimensions; Validate() (which Write and Read
  /// run) rejects a manifest where it does not.
  void AddShard(ShardInfo info);

  /// Structural consistency: at least one shard, non-empty names,
  /// per-shard bounds of the right dimensionality, and the per-shard
  /// point counts summing to total_points().
  Status Validate() const;

  /// Serializes to `name` in `storage` (create-or-truncate).
  Status Write(Storage& storage, const std::string& name) const;

  /// Parses a manifest; Corruption on bad magic/version or any
  /// truncated or inconsistent payload.
  static Result<ShardManifest> Read(Storage& storage,
                                    const std::string& name);

  /// Canonical index base name of shard `shard` under manifest base
  /// name `base` — what the bulk loader creates and the searcher opens.
  static std::string ShardIndexName(const std::string& base, size_t shard);

  size_t dims() const { return dims_; }
  Metric metric() const { return metric_; }
  ShardPlan plan() const { return plan_; }
  size_t plan_dim() const { return plan_dim_; }
  uint64_t total_points() const { return total_points_; }
  size_t num_shards() const { return shards_.size(); }
  const std::vector<ShardInfo>& shards() const { return shards_; }

 private:
  size_t dims_ = 0;
  Metric metric_ = Metric::kL2;
  ShardPlan plan_ = ShardPlan::kRoundRobin;
  size_t plan_dim_ = 0;
  uint64_t total_points_ = 0;
  std::vector<ShardInfo> shards_;
};

}  // namespace iq

#endif  // IQ_SHARD_SHARD_MANIFEST_H_
