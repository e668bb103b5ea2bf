/// Tier-2 maintenance page swaps (docs/maintenance.md): re-quantize,
/// split and merge a live page concurrently with queries. The protocol
/// is epoch/RCU-shaped:
///
///   1. Load the affected records lock-free — maintenance is the single
///      writer, so the directory cannot change underneath it, and block
///      reads are concurrent-safe against queries by the File contract.
///   2. Durably APPEND the replacement qpage block(s) and exact
///      extent(s). Live blocks are never overwritten, so every query
///      that pinned the old directory entry keeps reading intact data.
///   3. Publish the new directory entry under a brief exclusive
///      swap_mu_ section (queries hold swap_mu_ shared for their whole
///      run), refresh the query-only directory mirror and bump
///      dir_version_.
///
/// The old blocks become garbage; Reoptimize is the quiesce point that
/// reclaims them. A crash before Flush leaves the persisted directory
/// pointing at the old blocks — still a consistent index.

#include <algorithm>

#include "core/iq_tree.h"
#include "core/page_records.h"

namespace iq {

namespace {

Status CheckDirIndex(size_t dir_index, size_t dir_size) {
  if (dir_index >= dir_size) {
    return Status::InvalidArgument("maintenance: directory index " +
                                   std::to_string(dir_index) +
                                   " out of range");
  }
  return Status::OK();
}

}  // namespace

Status IqTree::MaintRequantizeEntry(size_t dir_index, unsigned new_bits) {
  IQ_RETURN_NOT_OK(CheckDirIndex(dir_index, dir_.size()));
  if (!IsQuantLevel(new_bits)) {
    return Status::InvalidArgument("maintenance: invalid quant level " +
                                   std::to_string(new_bits));
  }
  if (!meta_.quantized && new_bits != kExactBits) {
    return Status::InvalidArgument(
        "maintenance: cannot quantize pages of a no-quantization tree");
  }
  std::vector<PointId> ids;
  std::vector<float> coords;
  IQ_RETURN_NOT_OK(LoadExactPage(dir_index, &ids, &coords));
  if (ids.size() > QuantPageCapacity(meta_.dims, new_bits,
                                     disk_->params().block_size)) {
    return Status::InvalidArgument(
        "maintenance: page does not fit quant level " +
        std::to_string(new_bits));
  }
  DirEntry entry = dir_[dir_index];
  entry.mbr = Mbr::Of(coords.data(), ids.size(), meta_.dims);
  entry.quant_bits = new_bits;
  IQ_RETURN_NOT_OK(WriteEntryPages(&entry, ids, coords,
                                   /*append_qpage=*/true));
  {
    WriterMutexLock lock(&swap_mu_);
    dir_[dir_index] = entry;
    PublishDirChange();
  }
  return DebugCheckInvariants();
}

Status IqTree::MaintSplitEntry(size_t dir_index) {
  IQ_RETURN_NOT_OK(CheckDirIndex(dir_index, dir_.size()));
  if (dir_[dir_index].count < 2) {
    return Status::InvalidArgument(
        "maintenance: cannot split a page with fewer than 2 points");
  }
  const size_t dims = meta_.dims;
  const uint32_t block_size = disk_->params().block_size;
  std::vector<PointId> ids;
  std::vector<float> coords;
  IQ_RETURN_NOT_OK(LoadExactPage(dir_index, &ids, &coords));
  const Mbr mbr = Mbr::Of(coords.data(), ids.size(), dims);
  RecordSplit halves = SplitRecordsAtMedian(ids, coords, dims, mbr);

  auto make_half = [&](const std::vector<PointId>& half_ids,
                       const std::vector<float>& half_coords,
                       DirEntry* entry) -> Status {
    entry->mbr = Mbr::Of(half_coords.data(), half_ids.size(), dims);
    entry->quant_bits = meta_.quantized
                            ? BestQuantLevel(dims, half_ids.size(), block_size)
                            : kExactBits;
    if (entry->quant_bits == 0) {
      return Status::Internal("maintenance: split half fits no level");
    }
    return WriteEntryPages(entry, half_ids, half_coords,
                           /*append_qpage=*/true);
  };
  DirEntry left, right;
  IQ_RETURN_NOT_OK(make_half(halves.left_ids, halves.left_coords, &left));
  IQ_RETURN_NOT_OK(make_half(halves.right_ids, halves.right_coords, &right));
  {
    WriterMutexLock lock(&swap_mu_);
    dir_[dir_index] = left;
    dir_.push_back(right);
    PublishDirChange();
  }
  return DebugCheckInvariants();
}

Status IqTree::MaintMergeEntries(size_t keep, size_t drop) {
  IQ_RETURN_NOT_OK(CheckDirIndex(keep, dir_.size()));
  IQ_RETURN_NOT_OK(CheckDirIndex(drop, dir_.size()));
  if (keep == drop) {
    return Status::InvalidArgument("maintenance: merge of a page with itself");
  }
  const size_t dims = meta_.dims;
  const uint32_t block_size = disk_->params().block_size;
  std::vector<PointId> ids;
  std::vector<float> coords;
  IQ_RETURN_NOT_OK(LoadExactPage(keep, &ids, &coords));
  {
    std::vector<PointId> drop_ids;
    std::vector<float> drop_coords;
    IQ_RETURN_NOT_OK(LoadExactPage(drop, &drop_ids, &drop_coords));
    ids.insert(ids.end(), drop_ids.begin(), drop_ids.end());
    coords.insert(coords.end(), drop_coords.begin(), drop_coords.end());
  }
  const unsigned g =
      meta_.quantized
          ? BestQuantLevel(dims, ids.size(), block_size)
          : (ids.size() <= QuantPageCapacity(dims, kExactBits, block_size)
                 ? kExactBits
                 : 0);
  if (g == 0) {
    return Status::InvalidArgument(
        "maintenance: merged page fits no quantization level");
  }
  DirEntry entry;
  entry.mbr = Mbr::Of(coords.data(), ids.size(), dims);
  entry.quant_bits = g;
  IQ_RETURN_NOT_OK(WriteEntryPages(&entry, ids, coords,
                                   /*append_qpage=*/true));
  {
    WriterMutexLock lock(&swap_mu_);
    dir_[keep] = entry;
    dir_.erase(dir_.begin() + static_cast<ptrdiff_t>(drop));
    PublishDirChange();
  }
  return DebugCheckInvariants();
}

}  // namespace iq
