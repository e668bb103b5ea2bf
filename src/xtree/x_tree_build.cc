#include <algorithm>
#include <numeric>

#include "common/math_utils.h"
#include "core/partitioner.h"
#include "xtree/x_tree.h"

namespace iq {

Status XTree::BulkLoad(DiskHead& head, const Dataset& data) {
  nodes_.clear();
  data_pages_.clear();
  if (data.size() == 0) {
    // Empty tree: a single empty leaf-level root.
    Node root;
    root.leaf_level = true;
    nodes_.push_back(std::move(root));
    root_ = 0;
    AssignNodeBlocks();
    return Status::OK();
  }

  std::vector<PointId> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0);
  const std::vector<Partition> partitions =
      PartitionDataset(data, ids, DataPageCapacity());

  // Write the data pages in partitioning order (spatially clustered) and
  // collect the leaf-level entries.
  std::vector<Entry> level;
  level.reserve(partitions.size());
  std::vector<PointId> page_ids;
  std::vector<float> page_coords;
  for (const Partition& partition : partitions) {
    page_ids.assign(ids.begin() + static_cast<ptrdiff_t>(partition.begin),
                    ids.begin() + static_cast<ptrdiff_t>(partition.end));
    page_coords.resize(page_ids.size() * dims_);
    for (size_t i = 0; i < page_ids.size(); ++i) {
      const float* row = data.row(page_ids[i]);
      std::copy(row, row + dims_, page_coords.data() + i * dims_);
    }
    const uint32_t page_id = static_cast<uint32_t>(data_pages_.size());
    IQ_RETURN_NOT_OK(WriteDataPage(head, page_id, page_ids, page_coords));
    level.push_back(Entry{partition.mbr, page_id,
                          static_cast<uint32_t>(page_ids.size())});
  }

  // Build the directory bottom-up: group consecutive entries (the
  // recursive partitioning order keeps siblings spatially adjacent, so
  // the grouping is essentially overlap-free, as in [4]).
  const uint32_t fanout = NodeFanout();
  bool entries_are_pages = true;
  while (level.size() > fanout) {
    std::vector<Entry> next_level;
    const size_t groups = CeilDiv(level.size(), fanout);
    // Even group sizes avoid a runt last node.
    const size_t per_group = CeilDiv(level.size(), groups);
    for (size_t g = 0; g < groups; ++g) {
      const size_t begin = g * per_group;
      const size_t end = std::min(level.size(), begin + per_group);
      Node node;
      node.leaf_level = entries_are_pages;
      node.entries.assign(level.begin() + static_cast<ptrdiff_t>(begin),
                          level.begin() + static_cast<ptrdiff_t>(end));
      Mbr mbr = Mbr::Empty(dims_);
      uint32_t count = 0;
      for (const Entry& entry : node.entries) {
        mbr.Extend(entry.mbr);
        count += entry.count;
      }
      const uint32_t node_id = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(std::move(node));
      next_level.push_back(Entry{std::move(mbr), node_id, count});
    }
    level = std::move(next_level);
    entries_are_pages = false;
  }
  Node root;
  root.leaf_level = entries_are_pages;
  root.entries = std::move(level);
  nodes_.push_back(std::move(root));
  root_ = static_cast<uint32_t>(nodes_.size() - 1);
  AssignNodeBlocks();
  return Status::OK();
}

}  // namespace iq
