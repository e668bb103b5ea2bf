#include <algorithm>
#include <limits>
#include <queue>

#include "xtree/x_tree.h"

namespace iq {

namespace {

/// Min-heap entry of the Hjaltason/Samet traversal: a directory node or
/// a data page, ordered by MINDIST.
struct HsEntry {
  double mindist;
  uint32_t id;
  bool is_node;

  bool operator>(const HsEntry& other) const {
    return mindist > other.mindist;
  }
};

using HsHeap = std::priority_queue<HsEntry, std::vector<HsEntry>,
                                   std::greater<HsEntry>>;

}  // namespace

/// Per-query k-NN state for the X-tree.
class XTreeSearcher {
 public:
  XTreeSearcher(const XTree& tree, PointView q, size_t k)
      : tree_(tree), q_(q), k_(k) {}

  Status Run(std::vector<Neighbor>* out) {
    HsHeap heap;
    heap.push(HsEntry{0.0, tree_.root_, true});
    std::vector<PointId> ids;
    std::vector<float> coords;
    while (!heap.empty() && heap.top().mindist < PruneDistance()) {
      const HsEntry top = heap.top();
      heap.pop();
      if (top.is_node) {
        const XTree::Node& node = tree_.nodes_[top.id];
        tree_.ChargeNodeRead(head_, top.id);
        for (const XTree::Entry& entry : node.entries) {
          const double mindist =
              MinDist(q_, entry.mbr, tree_.options_.metric);
          if (mindist < PruneDistance()) {
            heap.push(HsEntry{mindist, entry.child, !node.leaf_level});
          }
        }
      } else {
        IQ_RETURN_NOT_OK(tree_.ReadDataPage(head_, top.id, &ids, &coords));
        for (size_t s = 0; s < ids.size(); ++s) {
          const double dist = Distance(
              q_, PointView(coords.data() + s * tree_.dims_, tree_.dims_),
              tree_.options_.metric);
          if (dist < PruneDistance()) AddResult(ids[s], dist);
        }
      }
    }
    out->assign(results_.begin(), results_.end());
    std::sort(out->begin(), out->end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    return Status::OK();
  }

 private:
  double PruneDistance() const {
    return results_.size() < k_ ? std::numeric_limits<double>::infinity()
                                : worst_;
  }

  void AddResult(PointId id, double distance) {
    if (results_.size() < k_) {
      results_.push_back(Neighbor{id, distance});
      if (results_.size() == k_) RecomputeWorst();
      return;
    }
    if (distance >= worst_) return;
    size_t worst_index = 0;
    for (size_t i = 1; i < results_.size(); ++i) {
      if (results_[i].distance > results_[worst_index].distance) {
        worst_index = i;
      }
    }
    results_[worst_index] = Neighbor{id, distance};
    RecomputeWorst();
  }

  void RecomputeWorst() {
    worst_ = 0;
    for (const Neighbor& r : results_) worst_ = std::max(worst_, r.distance);
  }

  const XTree& tree_;
  PointView q_;
  size_t k_;
  DiskHead head_;
  std::vector<Neighbor> results_;
  double worst_ = std::numeric_limits<double>::infinity();
};

Result<Neighbor> XTree::NearestNeighbor(PointView q) const {
  IQ_ASSIGN_OR_RETURN(std::vector<Neighbor> out, KNearestNeighbors(q, 1));
  if (out.empty()) return Status::NotFound("empty index");
  return out.front();
}

Result<std::vector<Neighbor>> XTree::KNearestNeighbors(PointView q,
                                                       size_t k) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (k == 0 || nodes_.empty()) return std::vector<Neighbor>{};
  XTreeSearcher searcher(*this, q, k);
  std::vector<Neighbor> out;
  IQ_RETURN_NOT_OK(searcher.Run(&out));
  return out;
}

Result<std::vector<Neighbor>> XTree::RangeSearch(PointView q,
                                                 double radius) const {
  if (q.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (radius < 0) return Status::InvalidArgument("negative radius");
  std::vector<Neighbor> out;
  std::vector<uint32_t> stack{root_};
  std::vector<PointId> ids;
  std::vector<float> coords;
  DiskHead head;
  while (!stack.empty()) {
    const uint32_t node_id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    ChargeNodeRead(head, node_id);
    for (const Entry& entry : node.entries) {
      if (MinDist(q, entry.mbr, options_.metric) > radius) continue;
      if (node.leaf_level) {
        IQ_RETURN_NOT_OK(ReadDataPage(head, entry.child, &ids, &coords));
        for (size_t s = 0; s < ids.size(); ++s) {
          const double dist = Distance(
              q, PointView(coords.data() + s * dims_, dims_),
              options_.metric);
          if (dist <= radius) out.push_back(Neighbor{ids[s], dist});
        }
      } else {
        stack.push_back(entry.child);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  return out;
}

Result<std::vector<PointId>> XTree::WindowQuery(const Mbr& window) const {
  if (window.dims() != dims_) {
    return Status::InvalidArgument("window dimensionality mismatch");
  }
  std::vector<PointId> out;
  std::vector<uint32_t> stack{root_};
  std::vector<PointId> ids;
  std::vector<float> coords;
  DiskHead head;
  while (!stack.empty()) {
    const uint32_t node_id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[node_id];
    ChargeNodeRead(head, node_id);
    for (const Entry& entry : node.entries) {
      if (!window.Intersects(entry.mbr)) continue;
      if (node.leaf_level) {
        IQ_RETURN_NOT_OK(ReadDataPage(head, entry.child, &ids, &coords));
        for (size_t s = 0; s < ids.size(); ++s) {
          if (window.Contains(PointView(coords.data() + s * dims_, dims_))) {
            out.push_back(ids[s]);
          }
        }
      } else {
        stack.push_back(entry.child);
      }
    }
  }
  return out;
}

}  // namespace iq
