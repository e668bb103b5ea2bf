#include "shard/sharded_bulk_loader.h"

#include <limits>
#include <utility>

#include "data/dataset.h"

namespace iq {

ShardedBulkLoader::ShardedBulkLoader(Storage& storage, std::string base_name)
    : ShardedBulkLoader(storage, std::move(base_name), Options()) {}

ShardedBulkLoader::ShardedBulkLoader(Storage& storage, std::string base_name,
                                     const Options& options)
    : storage_(storage),
      base_(std::move(base_name)),
      options_(options),
      planner_(options.plan, options.num_shards == 0 ? 1 : options.num_shards,
               options.plan_dim) {
  if (options_.num_shards == 0) options_.num_shards = 1;
}

Status ShardedBulkLoader::Add(PointView p) {
  if (finished_) {
    return Status::InvalidArgument("ShardedBulkLoader already finished");
  }
  if (shards_.empty()) {
    if (p.size() == 0) {
      return Status::InvalidArgument("cannot shard zero-dimensional points");
    }
    if (options_.plan == ShardPlan::kRankPartition &&
        options_.plan_dim >= p.size()) {
      return Status::InvalidArgument("plan_dim out of range for point dims");
    }
    dims_ = p.size();
    shards_.resize(options_.num_shards);
    for (ShardState& shard : shards_) shard.bounds = Mbr::Empty(dims_);
  }
  if (p.size() != dims_) {
    return Status::InvalidArgument("point dims mismatch in sharded load");
  }
  if (next_id_ > std::numeric_limits<PointId>::max()) {
    return Status::OutOfRange("sharded load exceeds PointId range");
  }
  ShardState& shard = shards_[planner_.ShardOf(next_id_, p)];
  shard.ids.push_back(static_cast<PointId>(next_id_));
  shard.coords.insert(shard.coords.end(), p.begin(), p.end());
  shard.bounds.Extend(p);
  ++next_id_;
  return Status::OK();
}

Result<ShardManifest> ShardedBulkLoader::Finish() {
  if (finished_) {
    return Status::InvalidArgument("ShardedBulkLoader already finished");
  }
  if (next_id_ == 0) {
    return Status::InvalidArgument(
        "sharded load finished with no points added");
  }
  finished_ = true;
  ShardManifest manifest(dims_, options_.tree.metric, planner_.plan(),
                         planner_.plan_dim());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = shards_[i];
    const std::string name = ShardManifest::ShardIndexName(base_, i);
    // Taking the buffers frees them when this iteration ends.
    const std::vector<PointId> ids = std::exchange(shard.ids, {});
    const Dataset rows(dims_, std::exchange(shard.coords, {}));
    DiskModel disk(options_.disk);
    IQ_RETURN_NOT_OK(
        IqTree::Build(rows, storage_, name, disk, options_.tree, ids).status());
    manifest.AddShard(ShardInfo{name, ids.size(), shard.bounds});
  }
  IQ_RETURN_NOT_OK(manifest.Write(storage_, base_));
  return manifest;
}

}  // namespace iq
