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
  IQ_RETURN_NOT_OK(AppendEntryPages(head, &entry, ids, coords));
  dir_.push_back(std::move(entry));
  dirty_ = true;
  return Status::OK();
}

/// One page an update writes: its records and its directory entry
/// (MBR and level; the write fills in the rest).
struct PlannedPage {
  DirEntry entry;
  std::vector<PointId> ids;
  std::vector<float> coords;
};

void IqTree::PlanPages(std::vector<PointId> ids, std::vector<float> coords,
                       std::vector<PlannedPage>* pages) const {
  const size_t dims = meta_.dims;
  const auto page_of = [&](std::vector<PointId> page_ids,
                           std::vector<float> page_coords) {
    PlannedPage page;
    page.entry.mbr = Mbr::Of(page_coords.data(), page_ids.size(), dims);
    page.entry.quant_bits = FitLevel(meta_.quantized != 0, dims,
                                     page_ids.size(),
                                     disk_->params().block_size);
    page.ids = std::move(page_ids);
    page.coords = std::move(page_coords);
    return page;
  };
  PlannedPage whole = page_of(std::move(ids), std::move(coords));
  const unsigned g_fit = whole.entry.quant_bits;
  if (g_fit != 0 &&
      !(meta_.quantized && g_fit < kExactBits && whole.ids.size() >= 2)) {
    pages->push_back(std::move(whole));
    return;
  }
  // The split at the median of the longest side, computed once: the
  // cost comparison weighs it and the split writes it.
  std::vector<uint32_t> perm;
  const size_t mid = MedianPartition(whole.coords, dims, whole.entry.mbr,
                                     &perm);
  const auto half = [&](size_t begin, size_t end) {
    std::vector<PointId> half_ids;
    std::vector<float> half_coords;
    for (size_t i = begin; i < end; ++i) {
      half_ids.push_back(whole.ids[perm[i]]);
      half_coords.insert(half_coords.end(),
                         whole.coords.begin() + perm[i] * dims,
                         whole.coords.begin() + (perm[i] + 1) * dims);
    }
    return page_of(std::move(half_ids), std::move(half_coords));
  };
  PlannedPage left = half(0, mid);
  PlannedPage right = half(mid, perm.size());
  if (g_fit != 0) {
    // §6: on overflow (and more generally whenever both options exist),
    // let the cost model decide between keeping one page at the coarser
    // level and splitting into two finer pages. Only the affected
    // pages' refinement costs and the page count change; everything
    // else is a shared constant.
    const CostModel model = MakeCostModel();
    const double keep_cost = model.TotalCost(
        dir_.size(),
        model.PageRefinementCost(whole.entry.mbr, whole.ids.size(), g_fit));
    const double split_cost = model.TotalCost(
        dir_.size() + 1,
        model.PageRefinementCost(left.entry.mbr, left.ids.size(),
                                 left.entry.quant_bits) +
            model.PageRefinementCost(right.entry.mbr, right.ids.size(),
                                     right.entry.quant_bits));
    if (!(split_cost < keep_cost)) {
      pages->push_back(std::move(whole));
      return;
    }
  }
  // A page holds at most one point more than fits, so each half fits;
  // the left half may split again, the right half is one page.
  PlanPages(std::move(left.ids), std::move(left.coords), pages);
  pages->push_back(std::move(right));
}

Status IqTree::RewriteEntry(DiskHead& head, size_t dir_index,
                            std::vector<PointId> ids,
                            std::vector<float> coords) {
  if (ids.empty()) {
    // Page became empty: drop the directory entry. The quantized block
    // and old extent become garbage (reclaimed by a rebuild).
    dir_.erase(dir_.begin() + static_cast<ptrdiff_t>(dir_index));
    dirty_ = true;
    return Status::OK();
  }
  std::vector<PlannedPage> pages;
  PlanPages(std::move(ids), std::move(coords), &pages);
  // The first page keeps this entry's quantized block, the others are
  // appended. Every appended page (all third-level pages, then the
  // others' quantized pages, each file in page order) is written
  // before the first quantized page overwrites the old one, and the
  // entries are published only once all writes landed: a failed write
  // leaves the directory exactly as it was, and what it appended is
  // garbage a rebuild reclaims.
  std::vector<std::vector<uint8_t>> qpages(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    IQ_RETURN_NOT_OK(EncodeEntryPages(head, &pages[i].entry, pages[i].ids,
                                      pages[i].coords, &qpages[i]));
  }
  for (size_t i = 1; i < pages.size(); ++i) {
    IQ_ASSIGN_OR_RETURN(uint64_t block,
                        qpages_->AppendBlock(head, qpages[i].data()));
    pages[i].entry.qpage_block = static_cast<uint32_t>(block);
  }
  pages[0].entry.qpage_block = dir_[dir_index].qpage_block;
  IQ_RETURN_NOT_OK(qpages_->WriteBlock(head, pages[0].entry.qpage_block,
                                       qpages[0].data()));
  dir_[dir_index] = std::move(pages[0].entry);
  for (size_t i = 1; i < pages.size(); ++i) {
    dir_.push_back(std::move(pages[i].entry));
  }
  dirty_ = true;
  return Status::OK();
}

Status IqTree::FinishUpdate(const Status& update) {
  // Refresh on failure too: a failed update publishes no directory
  // change, but it may have appended quantized pages, and the mirror
  // covers the whole file.
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
