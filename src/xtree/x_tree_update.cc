#include <algorithm>
#include <limits>
#include <numeric>

#include "xtree/x_tree.h"

namespace iq {

namespace {

double MarginEnlargement(const Mbr& mbr, PointView p) {
  double enlargement = 0.0;
  for (size_t i = 0; i < mbr.dims(); ++i) {
    if (p[i] < mbr.lb(i)) enlargement += mbr.lb(i) - p[i];
    if (p[i] > mbr.ub(i)) enlargement += p[i] - mbr.ub(i);
  }
  return enlargement;
}

}  // namespace

Status XTree::SplitDataPage(DiskHead& head, uint32_t page_id,
                            std::vector<PointId> ids,
                            std::vector<float> coords, Entry* left_entry,
                            Entry* right_entry) {
  const Mbr mbr = Mbr::Of(coords.data(), ids.size(), dims_);
  const size_t dim = mbr.LongestDimension();
  std::vector<uint32_t> perm(ids.size());
  std::iota(perm.begin(), perm.end(), 0);
  const size_t mid = perm.size() / 2;
  std::nth_element(perm.begin(), perm.begin() + static_cast<ptrdiff_t>(mid),
                   perm.end(), [&](uint32_t a, uint32_t b) {
                     return coords[a * dims_ + dim] < coords[b * dims_ + dim];
                   });
  std::vector<PointId> left_ids, right_ids;
  std::vector<float> left_coords, right_coords;
  for (size_t i = 0; i < perm.size(); ++i) {
    auto& out_ids = i < mid ? left_ids : right_ids;
    auto& out_coords = i < mid ? left_coords : right_coords;
    out_ids.push_back(ids[perm[i]]);
    out_coords.insert(out_coords.end(), coords.begin() + perm[i] * dims_,
                      coords.begin() + (perm[i] + 1) * dims_);
  }
  IQ_RETURN_NOT_OK(WriteDataPage(head, page_id, left_ids, left_coords));
  const uint32_t right_page = static_cast<uint32_t>(data_pages_.size());
  IQ_RETURN_NOT_OK(WriteDataPage(head, right_page, right_ids, right_coords));
  *left_entry = Entry{Mbr::Of(left_coords.data(), left_ids.size(), dims_),
                      page_id, static_cast<uint32_t>(left_ids.size())};
  *right_entry = Entry{Mbr::Of(right_coords.data(), right_ids.size(), dims_),
                       right_page, static_cast<uint32_t>(right_ids.size())};
  return Status::OK();
}

bool XTree::TrySplitNode(uint32_t node_id, Entry* left_entry,
                         Entry* right_entry) {
  Node& node = nodes_[node_id];
  const size_t n = node.entries.size();
  if (n < 4) return false;
  // Overlap-minimal topological split: for each dimension, sort the
  // entries by MBR center and split in the middle; take the dimension
  // whose two groups overlap least along the split axis. (The original
  // X-tree derives the dimension from the split history; sorting by
  // center along each axis finds the same overlap-free split whenever
  // one exists for median-style splits.)
  size_t best_dim = dims_;
  double best_overlap = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> perm(n);
  std::vector<uint32_t> best_perm;
  for (size_t dim = 0; dim < dims_; ++dim) {
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      const float ca = node.entries[a].mbr.lb(dim) + node.entries[a].mbr.ub(dim);
      const float cb = node.entries[b].mbr.lb(dim) + node.entries[b].mbr.ub(dim);
      return ca < cb;
    });
    const size_t mid = n / 2;
    float left_ub = -std::numeric_limits<float>::infinity();
    float right_lb = std::numeric_limits<float>::infinity();
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < n; ++i) {
      const Mbr& mbr = node.entries[perm[i]].mbr;
      lo = std::min(lo, mbr.lb(dim));
      hi = std::max(hi, mbr.ub(dim));
      if (i < mid) {
        left_ub = std::max(left_ub, mbr.ub(dim));
      } else {
        right_lb = std::min(right_lb, mbr.lb(dim));
      }
    }
    const float span = hi - lo;
    const double overlap =
        span > 0 ? std::max(0.0f, left_ub - right_lb) / span : 1.0;
    if (overlap < best_overlap) {
      best_overlap = overlap;
      best_dim = dim;
      best_perm = perm;
    }
  }
  if (best_dim == dims_ || best_overlap > options_.max_overlap) {
    return false;  // no acceptable split: the node becomes a supernode
  }
  const size_t mid = n / 2;
  Node right;
  right.leaf_level = node.leaf_level;
  std::vector<Entry> left_entries;
  for (size_t i = 0; i < n; ++i) {
    (i < mid ? left_entries : right.entries)
        .push_back(std::move(node.entries[best_perm[i]]));
  }
  node.entries = std::move(left_entries);
  auto summarize = [&](const Node& summarized, uint32_t child) {
    Mbr mbr = Mbr::Empty(dims_);
    uint32_t count = 0;
    for (const Entry& entry : summarized.entries) {
      mbr.Extend(entry.mbr);
      count += entry.count;
    }
    return Entry{std::move(mbr), child, count};
  };
  const uint32_t right_id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(right));
  *left_entry = summarize(nodes_[node_id], node_id);
  *right_entry = summarize(nodes_[right_id], right_id);
  return true;
}

Status XTree::InsertRecursive(DiskHead& head, uint32_t node_id, PointId id,
                              PointView p, std::vector<Entry>* promoted) {
  promoted->clear();
  Node& node = nodes_[node_id];
  if (node.entries.empty()) {
    // Only possible for an empty leaf-level root.
    if (!node.leaf_level) {
      return Status::Internal("empty inner node");
    }
    std::vector<PointId> ids{id};
    std::vector<float> coords(p.begin(), p.end());
    const uint32_t page_id = static_cast<uint32_t>(data_pages_.size());
    IQ_RETURN_NOT_OK(WriteDataPage(head, page_id, ids, coords));
    node.entries.push_back(
        Entry{Mbr::Of(coords.data(), 1, dims_), page_id, 1});
    return Status::OK();
  }

  // Choose the subtree needing least (margin) enlargement.
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_margin = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enlargement = MarginEnlargement(node.entries[i].mbr, p);
    const double margin = node.entries[i].mbr.Margin();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && margin < best_margin)) {
      best = i;
      best_enlargement = enlargement;
      best_margin = margin;
    }
  }
  node.entries[best].mbr.Extend(p);
  node.entries[best].count += 1;

  if (node.leaf_level) {
    const uint32_t page_id = node.entries[best].child;
    std::vector<PointId> ids;
    std::vector<float> coords;
    IQ_RETURN_NOT_OK(ReadDataPage(head, page_id, &ids, &coords));
    ids.push_back(id);
    coords.insert(coords.end(), p.begin(), p.end());
    if (ids.size() <= DataPageCapacity()) {
      return WriteDataPage(head, page_id, ids, coords);
    }
    Entry left, right;
    IQ_RETURN_NOT_OK(SplitDataPage(head, page_id, std::move(ids),
                                   std::move(coords), &left, &right));
    node.entries[best] = std::move(left);
    node.entries.push_back(std::move(right));
  } else {
    std::vector<Entry> child_promoted;
    IQ_RETURN_NOT_OK(InsertRecursive(head, node.entries[best].child, id, p,
                                     &child_promoted));
    // InsertRecursive may reallocate nodes_; `node` must be re-fetched.
    Node& self = nodes_[node_id];
    if (!child_promoted.empty()) {
      self.entries[best] = std::move(child_promoted[0]);
      self.entries.push_back(std::move(child_promoted[1]));
    }
  }

  // Overflow: try the overlap-minimal split; if the overlap would be too
  // high, allow the node to grow into a supernode instead (the X-tree's
  // defining move).
  Node& self = nodes_[node_id];
  if (self.entries.size() > NodeFanout()) {
    Entry left, right;
    if (TrySplitNode(node_id, &left, &right)) {
      promoted->push_back(std::move(left));
      promoted->push_back(std::move(right));
    }
    // else: supernode — nothing to do, NodeBlocks grows with the entry
    // count.
  }
  return Status::OK();
}

XTree::Entry XTree::Summarize(uint32_t node_id) const {
  const Node& node = nodes_[node_id];
  Mbr mbr = Mbr::Empty(dims_);
  uint32_t count = 0;
  for (const Entry& entry : node.entries) {
    mbr.Extend(entry.mbr);
    count += entry.count;
  }
  return Entry{std::move(mbr), node_id, count};
}

Status XTree::RemoveRecursive(DiskHead& head, uint32_t node_id, PointId id,
                              PointView p, bool* found) {
  *found = false;
  Node& node = nodes_[node_id];
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (!node.entries[i].mbr.Contains(p)) continue;
    if (node.leaf_level) {
      const uint32_t page_id = node.entries[i].child;
      std::vector<PointId> ids;
      std::vector<float> coords;
      IQ_RETURN_NOT_OK(ReadDataPage(head, page_id, &ids, &coords));
      const auto it = std::find(ids.begin(), ids.end(), id);
      if (it == ids.end()) continue;
      const size_t slot = static_cast<size_t>(it - ids.begin());
      ids.erase(it);
      coords.erase(
          coords.begin() + static_cast<ptrdiff_t>(slot * dims_),
          coords.begin() + static_cast<ptrdiff_t>((slot + 1) * dims_));
      if (ids.empty()) {
        node.entries.erase(node.entries.begin() +
                           static_cast<ptrdiff_t>(i));
      } else {
        IQ_RETURN_NOT_OK(WriteDataPage(head, page_id, ids, coords));
        node.entries[i].mbr = Mbr::Of(coords.data(), ids.size(), dims_);
        node.entries[i].count -= 1;
      }
      *found = true;
      return Status::OK();
    }
    bool child_found = false;
    IQ_RETURN_NOT_OK(
        RemoveRecursive(head, node.entries[i].child, id, p, &child_found));
    // The recursion may invalidate `node`; re-fetch before mutating.
    Node& self = nodes_[node_id];
    if (!child_found) continue;
    if (nodes_[self.entries[i].child].entries.empty()) {
      self.entries.erase(self.entries.begin() + static_cast<ptrdiff_t>(i));
    } else {
      const uint32_t child = self.entries[i].child;
      self.entries[i] = Summarize(child);
    }
    *found = true;
    return Status::OK();
  }
  return Status::OK();
}

Status XTree::Remove(PointId id, PointView p) {
  if (p.size() != dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  bool found = false;
  DiskHead head;
  IQ_RETURN_NOT_OK(RemoveRecursive(head, root_, id, p, &found));
  if (!found) {
    return Status::NotFound("point " + std::to_string(id) +
                            " not in index");
  }
  total_points_ -= 1;
  dirty_ = true;
  AssignNodeBlocks();
  return Status::OK();
}

Status XTree::Insert(PointId id, PointView p) {
  if (p.size() != dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  std::vector<Entry> promoted;
  DiskHead head;
  IQ_RETURN_NOT_OK(InsertRecursive(head, root_, id, p, &promoted));
  if (!promoted.empty()) {
    Node new_root;
    new_root.leaf_level = false;
    new_root.entries = std::move(promoted);
    nodes_.push_back(std::move(new_root));
    root_ = static_cast<uint32_t>(nodes_.size() - 1);
  }
  total_points_ += 1;
  dirty_ = true;
  AssignNodeBlocks();
  return Status::OK();
}

}  // namespace iq
