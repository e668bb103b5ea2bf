#include <algorithm>
#include <limits>
#include <numeric>

#include "core/iq_tree.h"
#include "core/partitioner.h"

namespace iq {

namespace {

/// Finest level at which `count` records fit one page: the quantization
/// ladder for a quantized tree, g = 32 or nothing otherwise; 0 when they
/// do not fit.
unsigned FitLevel(bool quantized, size_t dims, size_t count,
                  uint32_t block_size) {
  if (quantized) return BestQuantLevel(dims, count, block_size);
  return count <= QuantPageCapacity(dims, kExactBits, block_size) ? kExactBits
                                                                   : 0;
}

/// Margin (sum of extents) enlargement if `p` joins `mbr` — the
/// insertion target heuristic. Volume enlargement degenerates in high
/// dimensions (products of many sub-1 extents underflow), margins don't.
double MarginEnlargement(const Mbr& mbr, PointView p) {
  double enlargement = 0.0;
  for (size_t i = 0; i < mbr.dims(); ++i) {
    if (p[i] < mbr.lb(i)) enlargement += mbr.lb(i) - p[i];
    if (p[i] > mbr.ub(i)) enlargement += p[i] - mbr.ub(i);
  }
  return enlargement;
}

/// Index of the directory entry whose MBR needs the least margin
/// enlargement to absorb `p` (ties broken by smaller margin).
/// Precondition: `dir` is non-empty.
size_t LeastEnlargementTarget(const std::vector<DirEntry>& dir, PointView p) {
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_margin = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < dir.size(); ++i) {
    const double enlargement = MarginEnlargement(dir[i].mbr, p);
    const double margin = dir[i].mbr.Margin();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && margin < best_margin)) {
      best = i;
      best_enlargement = enlargement;
      best_margin = margin;
    }
  }
  return best;
}

/// Permutation split of `count` row-major records at the median of
/// `mbr`'s longest side. On return `perm` holds a permutation of
/// [0, count) with records below the median in perm[0..mid) and the
/// rest in perm[mid..count); returns mid = count / 2.
size_t MedianPartition(const std::vector<float>& coords, size_t dims,
                       const Mbr& mbr, std::vector<uint32_t>* perm) {
  perm->resize(coords.size() / dims);
  std::iota(perm->begin(), perm->end(), 0);
  const size_t dim = mbr.LongestDimension();
  const size_t mid = perm->size() / 2;
  std::nth_element(perm->begin(), perm->begin() + static_cast<ptrdiff_t>(mid),
                   perm->end(), [&](uint32_t a, uint32_t b) {
                     return coords[a * dims + dim] < coords[b * dims + dim];
                   });
  return mid;
}

/// Tight MBRs of the two halves of a MedianPartition — used for the
/// hypothetical-split cost comparison without materialising the halves.
void PartitionMbrs(const std::vector<uint32_t>& perm, size_t mid,
                   const std::vector<float>& coords, size_t dims, Mbr* left,
                   Mbr* right) {
  *left = Mbr::Empty(dims);
  *right = Mbr::Empty(dims);
  for (size_t i = 0; i < perm.size(); ++i) {
    PointView p(coords.data() + perm[i] * dims, dims);
    (i < mid ? *left : *right).Extend(p);
  }
}

/// A page's record set split into two halves at the median.
struct RecordSplit {
  std::vector<PointId> left_ids;
  std::vector<float> left_coords;
  std::vector<PointId> right_ids;
  std::vector<float> right_coords;
};

/// Materialised median split of a record set along `mbr`'s longest side.
RecordSplit SplitRecordsAtMedian(const std::vector<PointId>& ids,
                                 const std::vector<float>& coords, size_t dims,
                                 const Mbr& mbr) {
  std::vector<uint32_t> perm;
  const size_t mid = MedianPartition(coords, dims, mbr, &perm);
  RecordSplit split;
  for (size_t i = 0; i < perm.size(); ++i) {
    auto& out_ids = i < mid ? split.left_ids : split.right_ids;
    auto& out_coords = i < mid ? split.left_coords : split.right_coords;
    out_ids.push_back(ids[perm[i]]);
    out_coords.insert(out_coords.end(), coords.begin() + perm[i] * dims,
                      coords.begin() + (perm[i] + 1) * dims);
  }
  return split;
}

}  // namespace

Status IqTree::AppendEntry(DiskHead& head, const std::vector<PointId>& ids,
                           const std::vector<float>& coords) {
  DirEntry entry;
  entry.mbr = Mbr::Of(coords.data(), ids.size(), meta_.dims);
  entry.quant_bits = FitLevel(meta_.quantized != 0, meta_.dims, ids.size(),
                              disk_->params().block_size);
  if (entry.quant_bits == 0) {
    return Status::Internal("AppendEntry called with an oversized page");
  }
  IQ_RETURN_NOT_OK(WriteEntryPages(head, &entry, ids, coords,
                                   /*append_qpage=*/true));
  dir_.push_back(std::move(entry));
  dirty_ = true;
  return Status::OK();
}

Status IqTree::RewriteEntry(DiskHead& head, size_t dir_index,
                            std::vector<PointId> ids,
                            std::vector<float> coords) {
  const size_t dims = meta_.dims;
  if (ids.empty()) {
    // Page became empty: drop the directory entry. The quantized block
    // and old extent become garbage (reclaimed by a rebuild).
    dir_.erase(dir_.begin() + static_cast<ptrdiff_t>(dir_index));
    dirty_ = true;
    return Status::OK();
  }
  const Mbr mbr = Mbr::Of(coords.data(), ids.size(), dims);
  const uint32_t block_size = disk_->params().block_size;
  const unsigned g_fit =
      FitLevel(meta_.quantized != 0, dims, ids.size(), block_size);

  bool split = g_fit == 0;
  if (!split && meta_.quantized && g_fit < kExactBits && ids.size() >= 2) {
    // §6: on overflow (and more generally whenever both options exist),
    // let the cost model decide between keeping one page at the coarser
    // level and splitting into two finer pages. Only the affected pages'
    // refinement costs and the page count change; everything else is a
    // shared constant.
    const CostModel model = MakeCostModel();
    const double keep_cost =
        model.TotalCost(dir_.size(),
                        model.PageRefinementCost(mbr, ids.size(), g_fit));
    // Hypothetical split at the median of the longest side.
    std::vector<uint32_t> perm;
    const size_t mid = MedianPartition(coords, dims, mbr, &perm);
    Mbr left = Mbr::Empty(dims);
    Mbr right = Mbr::Empty(dims);
    PartitionMbrs(perm, mid, coords, dims, &left, &right);
    const unsigned g_left = BestQuantLevel(dims, mid, block_size);
    const unsigned g_right =
        BestQuantLevel(dims, perm.size() - mid, block_size);
    const double split_cost = model.TotalCost(
        dir_.size() + 1,
        model.PageRefinementCost(left, mid, g_left) +
            model.PageRefinementCost(right, perm.size() - mid, g_right));
    if (split_cost < keep_cost) {
      split = true;
    }
  }

  if (split) {
    // Reorder records at the median and write the halves: the left half
    // reuses this entry's quantized block, the right half is appended.
    // A page holds at most one point more than fits, so each half fits.
    RecordSplit halves = SplitRecordsAtMedian(ids, coords, dims, mbr);
    IQ_RETURN_NOT_OK(RewriteEntry(head, dir_index,
                                  std::move(halves.left_ids),
                                  std::move(halves.left_coords)));
    return AppendEntry(head, halves.right_ids, halves.right_coords);
  }

  // Mutate a copy and publish it only once the pages are durably
  // written: a failed write must leave the in-memory directory exactly
  // as it was.
  DirEntry entry = dir_[dir_index];
  entry.mbr = mbr;
  entry.quant_bits = g_fit;
  IQ_RETURN_NOT_OK(WriteEntryPages(head, &entry, ids, coords,
                                   /*append_qpage=*/false));
  dir_[dir_index] = entry;
  dirty_ = true;
  return Status::OK();
}

Status IqTree::FinishUpdate(const Status& update) {
  // Refresh on failure too: a failed update may have published part of
  // its directory changes before the failing write.
  RefreshFromDirectory();
  IQ_RETURN_NOT_OK(update);
  return DebugCheckInvariants();
}

Status IqTree::Insert(PointId id, PointView p) {
  if (p.size() != meta_.dims) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  DiskHead head;
  return FinishUpdate(InsertPoint(head, id, p));
}

Status IqTree::InsertPoint(DiskHead& head, PointId id, PointView p) {
  if (dir_.empty()) {
    std::vector<PointId> ids{id};
    std::vector<float> coords(p.begin(), p.end());
    IQ_RETURN_NOT_OK(AppendEntry(head, ids, coords));
    // Count the point only once the write is durable: on failure the
    // in-memory metadata must keep matching the actual index contents,
    // or a later Flush persists the lie.
    meta_.total_points += 1;
    return Status::OK();
  }
  const size_t best = LeastEnlargementTarget(dir_, p);
  std::vector<PointId> ids;
  std::vector<float> coords;
  IQ_RETURN_NOT_OK(LoadExactPage(head, best, &ids, &coords));
  ids.push_back(id);
  coords.insert(coords.end(), p.begin(), p.end());
  IQ_RETURN_NOT_OK(
      RewriteEntry(head, best, std::move(ids), std::move(coords)));
  meta_.total_points += 1;
  return Status::OK();
}

Status IqTree::Remove(PointId id, PointView p) {
  if (p.size() != meta_.dims) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  DiskHead head;
  return FinishUpdate(RemovePoint(head, id, p));
}

Status IqTree::RemovePoint(DiskHead& head, PointId id, PointView p) {
  for (size_t i = 0; i < dir_.size(); ++i) {
    if (!dir_[i].mbr.Contains(p)) continue;
    std::vector<PointId> ids;
    std::vector<float> coords;
    IQ_RETURN_NOT_OK(LoadExactPage(head, i, &ids, &coords));
    const auto it = std::find(ids.begin(), ids.end(), id);
    if (it == ids.end()) continue;
    const size_t slot = static_cast<size_t>(it - ids.begin());
    ids.erase(it);
    coords.erase(coords.begin() + static_cast<ptrdiff_t>(slot * meta_.dims),
                 coords.begin() +
                     static_cast<ptrdiff_t>((slot + 1) * meta_.dims));
    // RewriteEntry re-tightens the MBR and re-quantizes at the finest
    // level the shrunk page now fits. Decrement the count only once the
    // rewrite succeeds (same torn-metadata hazard as Insert).
    IQ_RETURN_NOT_OK(
        RewriteEntry(head, i, std::move(ids), std::move(coords)));
    meta_.total_points -= 1;
    return Status::OK();
  }
  return Status::NotFound("point " + std::to_string(id) + " not in index");
}

}  // namespace iq
