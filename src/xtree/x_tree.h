#ifndef IQ_XTREE_X_TREE_H_
#define IQ_XTREE_X_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "geom/metrics.h"
#include "geom/neighbor.h"
#include "io/block_file.h"
#include "io/disk_model.h"
#include "io/storage.h"

namespace iq {

/// The X-tree baseline (Berchtold, Keim, Kriegel, VLDB '96; the paper's
/// [6]): a hierarchical R-tree-like index for high-dimensional data with
/// two distinguishing features reproduced here:
///
///  * overlap-minimal topological splits of directory nodes, and
///  * *supernodes*: when no split with acceptable overlap exists, the
///    node is enlarged to a multiple of the block size instead.
///
/// Data pages store exact points. Bulk loading uses the same top-down
/// partitioning as the IQ-tree ([4]), which is how the paper built its
/// comparison trees. Queries perform the classic one-page-per-access
/// Hjaltason/Samet traversal with random I/O — the access pattern the
/// IQ-tree's scheduling is designed to beat.
class XTree {
 public:
  struct Options {
    Metric metric = Metric::kL2;
    /// Maximum tolerated overlap fraction of a directory split before a
    /// supernode is created instead (X-tree's MAX_OVERLAP, ~20%).
    double max_overlap = 0.2;
  };

  struct TreeStats {
    size_t num_data_pages = 0;
    size_t num_dir_nodes = 0;
    size_t num_supernodes = 0;
    size_t height = 0;
  };

  static Result<std::unique_ptr<XTree>> Build(const Dataset& data,
                                              Storage& storage,
                                              const std::string& name,
                                              DiskModel& disk,
                                              const Options& options);

  static Result<std::unique_ptr<XTree>> Open(Storage& storage,
                                             const std::string& name,
                                             DiskModel& disk);

  Result<Neighbor> NearestNeighbor(PointView q) const;
  Result<std::vector<Neighbor>> KNearestNeighbors(PointView q,
                                                  size_t k) const;
  Result<std::vector<Neighbor>> RangeSearch(PointView q, double radius) const;
  Result<std::vector<PointId>> WindowQuery(const Mbr& window) const;

  Status Insert(PointId id, PointView p);

  /// Removes a point by id and location; NotFound if absent. Entry MBRs
  /// along the path are re-tightened and emptied pages/subtrees are
  /// dropped. (No R*-style forced reinsertion: underfull pages are
  /// tolerated, as in most production R-tree variants.)
  Status Remove(PointId id, PointView p);

  /// Persists the directory after updates.
  Status Flush();

  size_t dims() const { return dims_; }
  uint64_t size() const { return total_points_; }
  Metric metric() const { return options_.metric; }
  TreeStats ComputeStats() const;

 private:
  friend class XTreeSearcher;

  /// One directory entry: a child (node or data page) and its MBR.
  struct Entry {
    Mbr mbr;
    uint32_t child = 0;
    uint32_t count = 0;
  };

  /// A directory node; entries reference nodes (inner) or data pages
  /// (leaf level). A node spanning more than one block is a supernode.
  struct Node {
    bool leaf_level = false;
    std::vector<Entry> entries;
    /// First block of this node in the (conceptual) directory file; the
    /// node occupies BlocksFor(entries) consecutive blocks.
    uint64_t first_block = 0;
  };

  struct DataPageInfo {
    uint32_t block = 0;
    uint32_t count = 0;
  };

  XTree() = default;

  uint32_t DataPageCapacity() const;
  uint32_t NodeFanout() const;
  uint64_t NodeBlocks(const Node& node) const;

  /// Charges the read of node `id` (all its blocks, random access).
  /// Here and below, `head` is the calling public operation's disk
  /// head.
  void ChargeNodeRead(DiskHead& head, uint32_t id) const;

  /// Recomputes node first_block layout after structural changes.
  void AssignNodeBlocks();

  Status ReadDataPage(DiskHead& head, uint32_t page_id,
                      std::vector<PointId>* ids,
                      std::vector<float>* coords) const;
  Status WriteDataPage(DiskHead& head, uint32_t page_id,
                       const std::vector<PointId>& ids,
                       const std::vector<float>& coords);

  /// Bulk load (x_tree_build.cc): data pages via the shared top-down
  /// partitioner, directory built bottom-up over the recursive order.
  Status BulkLoad(DiskHead& head, const Dataset& data);

  // --- dynamic insert helpers (x_tree_update.cc) ---
  Status InsertRecursive(DiskHead& head, uint32_t node_id, PointId id,
                         PointView p, std::vector<Entry>* promoted);
  /// Returns true via `found` if the point was removed somewhere below
  /// `node_id`; the caller refreshes its summary entry.
  Status RemoveRecursive(DiskHead& head, uint32_t node_id, PointId id,
                         PointView p, bool* found);
  /// Recomputes the summary (MBR + count) of node `node_id`.
  Entry Summarize(uint32_t node_id) const;
  Status SplitDataPage(DiskHead& head, uint32_t page_id,
                       std::vector<PointId> ids,
                       std::vector<float> coords, Entry* left_entry,
                       Entry* right_entry);
  /// Splits `entries` into two groups minimizing MBR overlap; returns
  /// the achieved overlap fraction, or declines (supernode) if above
  /// max_overlap.
  bool TrySplitNode(uint32_t node_id, Entry* left_entry, Entry* right_entry);

  Options options_;
  size_t dims_ = 0;
  uint64_t total_points_ = 0;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  std::vector<DataPageInfo> data_pages_;
  std::unique_ptr<BlockFile> page_file_;
  std::shared_ptr<File> dir_file_;
  DiskModel* disk_ = nullptr;
  uint32_t dir_file_id_ = 0;
  bool dirty_ = false;
};

}  // namespace iq

#endif  // IQ_XTREE_X_TREE_H_
