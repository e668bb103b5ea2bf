#include "xtree/x_tree.h"

#include <cstring>

#include "common/math_utils.h"
#include "core/format.h"

namespace iq {

namespace {

constexpr uint32_t kXDirMagic = 0x58444952;  // "XDIR"

struct XDirHeader {
  uint32_t magic;
  uint32_t dims;
  uint64_t total_points;
  uint32_t metric;
  uint32_t root;
  uint32_t num_nodes;
  uint32_t num_data_pages;
  double max_overlap;
};
static_assert(sizeof(XDirHeader) == 40);

/// Serialized directory entry: MBR + child + count.
size_t XEntryBytes(size_t dims) {
  return 2 * sizeof(float) * dims + 2 * sizeof(uint32_t);
}

std::string XDirName(const std::string& name) { return name + ".xdir"; }
std::string XPageName(const std::string& name) { return name + ".xpg"; }

}  // namespace

uint32_t XTree::DataPageCapacity() const {
  return QuantPageCapacity(dims_, kExactBits, disk_->params().block_size);
}

uint32_t XTree::NodeFanout() const {
  // Entries per directory block, after a small node header.
  const uint32_t usable = disk_->params().block_size - 16;
  return std::max<uint32_t>(2, usable / XEntryBytes(dims_));
}

uint64_t XTree::NodeBlocks(const Node& node) const {
  return std::max<uint64_t>(
      1, CeilDiv(node.entries.size(), NodeFanout()));
}

void XTree::ChargeNodeRead(DiskHead& head, uint32_t id) const {
  const Node& node = nodes_[id];
  disk_->ChargeRead(head, dir_file_id_, node.first_block, NodeBlocks(node));
}

void XTree::AssignNodeBlocks() {
  uint64_t next = 0;
  for (Node& node : nodes_) {
    node.first_block = next;
    next += NodeBlocks(node);
  }
}

Status XTree::ReadDataPage(DiskHead& head, uint32_t page_id,
                           std::vector<PointId>* ids,
                           std::vector<float>* coords) const {
  if (page_id >= data_pages_.size()) {
    return Status::Corruption("data page id out of range");
  }
  std::vector<uint8_t> block(disk_->params().block_size);
  IQ_RETURN_NOT_OK(page_file_->ReadBlock(head, data_pages_[page_id].block,
                                         block.data()));
  QuantPageCodec codec(dims_, disk_->params().block_size);
  IQ_RETURN_NOT_OK(codec.DecodeExact(block.data(), ids, coords));
  if (ids->size() != data_pages_[page_id].count) {
    return Status::Corruption("data page count mismatch");
  }
  return Status::OK();
}

Status XTree::WriteDataPage(DiskHead& head, uint32_t page_id,
                            const std::vector<PointId>& ids,
                            const std::vector<float>& coords) {
  QuantPageCodec codec(dims_, disk_->params().block_size);
  std::vector<uint8_t> block(disk_->params().block_size);
  IQ_RETURN_NOT_OK(codec.EncodeExact(ids, coords, block.data()));
  if (page_id == data_pages_.size()) {
    IQ_ASSIGN_OR_RETURN(uint64_t b,
                        page_file_->AppendBlock(head, block.data()));
    data_pages_.push_back(
        DataPageInfo{static_cast<uint32_t>(b),
                     static_cast<uint32_t>(ids.size())});
    return Status::OK();
  }
  IQ_RETURN_NOT_OK(page_file_->WriteBlock(head, data_pages_[page_id].block,
                                          block.data()));
  data_pages_[page_id].count = static_cast<uint32_t>(ids.size());
  return Status::OK();
}

XTree::TreeStats XTree::ComputeStats() const {
  TreeStats stats;
  stats.num_data_pages = data_pages_.size();
  stats.num_dir_nodes = nodes_.size();
  for (const Node& node : nodes_) {
    if (NodeBlocks(node) > 1) ++stats.num_supernodes;
  }
  // Height: follow first children from the root.
  size_t height = 1;
  uint32_t id = root_;
  while (!nodes_.empty() && !nodes_[id].leaf_level &&
         !nodes_[id].entries.empty()) {
    id = nodes_[id].entries.front().child;
    ++height;
  }
  stats.height = height;
  return stats;
}

Status XTree::Flush() {
  if (!dirty_) return Status::OK();
  AssignNodeBlocks();
  // Serialize: header, per-node (leaf_level, num_entries, first_block),
  // entries, then data page table.
  XDirHeader header{kXDirMagic,
                    static_cast<uint32_t>(dims_),
                    total_points_,
                    static_cast<uint32_t>(options_.metric),
                    root_,
                    static_cast<uint32_t>(nodes_.size()),
                    static_cast<uint32_t>(data_pages_.size()),
                    options_.max_overlap};
  IQ_RETURN_NOT_OK(dir_file_->Resize(0));
  uint64_t offset = 0;
  auto append = [&](const void* data, size_t size) -> Status {
    IQ_RETURN_NOT_OK(dir_file_->Write(offset, size, data));
    offset += size;
    return Status::OK();
  };
  IQ_RETURN_NOT_OK(append(&header, sizeof(header)));
  for (const Node& node : nodes_) {
    const uint32_t leaf = node.leaf_level ? 1 : 0;
    const uint32_t n = static_cast<uint32_t>(node.entries.size());
    IQ_RETURN_NOT_OK(append(&leaf, sizeof(leaf)));
    IQ_RETURN_NOT_OK(append(&n, sizeof(n)));
    IQ_RETURN_NOT_OK(append(&node.first_block, sizeof(node.first_block)));
    for (const Entry& entry : node.entries) {
      IQ_RETURN_NOT_OK(append(entry.mbr.lower().data(),
                              sizeof(float) * dims_));
      IQ_RETURN_NOT_OK(append(entry.mbr.upper().data(),
                              sizeof(float) * dims_));
      IQ_RETURN_NOT_OK(append(&entry.child, sizeof(entry.child)));
      IQ_RETURN_NOT_OK(append(&entry.count, sizeof(entry.count)));
    }
  }
  for (const DataPageInfo& page : data_pages_) {
    IQ_RETURN_NOT_OK(append(&page.block, sizeof(page.block)));
    IQ_RETURN_NOT_OK(append(&page.count, sizeof(page.count)));
  }
  dirty_ = false;
  return Status::OK();
}

Result<std::unique_ptr<XTree>> XTree::Open(Storage& storage,
                                           const std::string& name,
                                           DiskModel& disk) {
  auto tree = std::unique_ptr<XTree>(new XTree());
  tree->disk_ = &disk;
  IQ_ASSIGN_OR_RETURN(tree->dir_file_, storage.Open(XDirName(name)));
  File& file = *tree->dir_file_;
  if (file.Size() < sizeof(XDirHeader)) {
    return Status::Corruption("X-tree directory too small");
  }
  XDirHeader header;
  IQ_RETURN_NOT_OK(file.Read(0, sizeof(header), &header));
  if (header.magic != kXDirMagic) {
    return Status::Corruption("bad X-tree directory magic");
  }
  tree->dims_ = header.dims;
  tree->total_points_ = header.total_points;
  tree->options_.metric = static_cast<Metric>(header.metric);
  tree->options_.max_overlap = header.max_overlap;
  tree->root_ = header.root;
  tree->dir_file_id_ = disk.RegisterFile();
  uint64_t offset = sizeof(header);
  auto read = [&](void* out, size_t size) -> Status {
    IQ_RETURN_NOT_OK(file.Read(offset, size, out));
    offset += size;
    return Status::OK();
  };
  tree->nodes_.resize(header.num_nodes);
  for (Node& node : tree->nodes_) {
    uint32_t leaf = 0, n = 0;
    IQ_RETURN_NOT_OK(read(&leaf, sizeof(leaf)));
    IQ_RETURN_NOT_OK(read(&n, sizeof(n)));
    IQ_RETURN_NOT_OK(read(&node.first_block, sizeof(node.first_block)));
    node.leaf_level = leaf != 0;
    node.entries.resize(n);
    for (Entry& entry : node.entries) {
      std::vector<float> lb(tree->dims_), ub(tree->dims_);
      IQ_RETURN_NOT_OK(read(lb.data(), sizeof(float) * tree->dims_));
      IQ_RETURN_NOT_OK(read(ub.data(), sizeof(float) * tree->dims_));
      entry.mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
      IQ_RETURN_NOT_OK(read(&entry.child, sizeof(entry.child)));
      IQ_RETURN_NOT_OK(read(&entry.count, sizeof(entry.count)));
    }
  }
  tree->data_pages_.resize(header.num_data_pages);
  for (DataPageInfo& page : tree->data_pages_) {
    IQ_RETURN_NOT_OK(read(&page.block, sizeof(page.block)));
    IQ_RETURN_NOT_OK(read(&page.count, sizeof(page.count)));
  }
  if (!tree->nodes_.empty() && tree->root_ >= tree->nodes_.size()) {
    return Status::Corruption("X-tree root out of range");
  }
  tree->page_file_ = std::make_unique<BlockFile>();
  IQ_RETURN_NOT_OK(tree->page_file_->Open(storage, XPageName(name), disk,
                                          /*create=*/false));
  return tree;
}

Result<std::unique_ptr<XTree>> XTree::Build(const Dataset& data,
                                            Storage& storage,
                                            const std::string& name,
                                            DiskModel& disk,
                                            const Options& options) {
  auto tree = std::unique_ptr<XTree>(new XTree());
  tree->disk_ = &disk;
  tree->options_ = options;
  tree->dims_ = data.dims();
  tree->total_points_ = data.size();
  tree->dir_file_id_ = disk.RegisterFile();
  if (tree->DataPageCapacity() == 0) {
    return Status::InvalidArgument("block size too small for one point");
  }
  tree->page_file_ = std::make_unique<BlockFile>();
  IQ_RETURN_NOT_OK(tree->page_file_->Open(storage, XPageName(name), disk,
                                          /*create=*/true));
  IQ_ASSIGN_OR_RETURN(tree->dir_file_, storage.Create(XDirName(name)));
  DiskHead head;
  IQ_RETURN_NOT_OK(tree->BulkLoad(head, data));
  tree->dirty_ = true;
  IQ_RETURN_NOT_OK(tree->Flush());
  return tree;
}

}  // namespace iq
