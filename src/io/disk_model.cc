#include "io/disk_model.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace iq {

namespace {

// Registry pointers resolved once; shared by every DiskModel (metrics
// are a process-wide namespace, per-model numbers come from stats()).
struct DiskMetrics {
  obs::Counter* seeks;
  obs::Counter* blocks_read;
  obs::Counter* blocks_written;

  static const DiskMetrics& Get() {
    static const DiskMetrics m{
        obs::MetricRegistry::Global().GetCounter(obs::metric::kDiskSeeksTotal),
        obs::MetricRegistry::Global().GetCounter(obs::metric::kDiskBlocksReadTotal),
        obs::MetricRegistry::Global().GetCounter(
            obs::metric::kDiskBlocksWrittenTotal)};
    return m;
  }
};

}  // namespace

IoStats DiskModel::stats() const {
  IoStats out;
  out.seeks = totals_.seeks.load(std::memory_order_relaxed);
  out.blocks_read = totals_.blocks_read.load(std::memory_order_relaxed);
  out.blocks_written = totals_.blocks_written.load(std::memory_order_relaxed);
  out.io_time_s = totals_.io_time_s.load(std::memory_order_relaxed);
  return out;
}

void DiskModel::ResetStats() {
  totals_.seeks.store(0, std::memory_order_relaxed);
  totals_.blocks_read.store(0, std::memory_order_relaxed);
  totals_.blocks_written.store(0, std::memory_order_relaxed);
  totals_.io_time_s.store(0.0, std::memory_order_relaxed);
}

void DiskModel::Access(DiskHead& head, uint32_t file_id, uint64_t first_block,
                       uint64_t count, bool is_write) {
  if (count == 0) return;
  const DiskMetrics& metrics = DiskMetrics::Get();
  // The head's clock and the totals take the same additions in the
  // same order, so the totals of one operation run alone after
  // ResetStats() equal that operation's own clock bit for bit.
  if (!head.valid || head.file != file_id || head.next_block != first_block) {
    head.stats.seeks += 1;
    head.stats.io_time_s += params_.seek_time_s;
    totals_.seeks.fetch_add(1, std::memory_order_relaxed);
    totals_.io_time_s.fetch_add(params_.seek_time_s,
                                std::memory_order_relaxed);
    metrics.seeks->Increment();
  }
  const double xfer = params_.xfer_time_s * static_cast<double>(count);
  head.stats.io_time_s += xfer;
  totals_.io_time_s.fetch_add(xfer, std::memory_order_relaxed);
  if (is_write) {
    head.stats.blocks_written += count;
    totals_.blocks_written.fetch_add(count, std::memory_order_relaxed);
    metrics.blocks_written->Add(count);
  } else {
    head.stats.blocks_read += count;
    totals_.blocks_read.fetch_add(count, std::memory_order_relaxed);
    metrics.blocks_read->Add(count);
  }
  head.valid = true;
  head.file = file_id;
  head.next_block = first_block + count;
}

void DiskModel::ChargeRead(DiskHead& head, uint32_t file_id,
                           uint64_t first_block, uint64_t count) {
  Access(head, file_id, first_block, count, /*is_write=*/false);
}

void DiskModel::ChargeWrite(DiskHead& head, uint32_t file_id,
                            uint64_t first_block, uint64_t count) {
  Access(head, file_id, first_block, count, /*is_write=*/true);
}

void DiskModel::ChargeReadBytes(DiskHead& head, uint32_t file_id,
                                uint64_t offset, uint64_t length) {
  if (length == 0) return;
  const uint64_t first = offset / params_.block_size;
  const uint64_t last = (offset + length - 1) / params_.block_size;
  ChargeRead(head, file_id, first, last - first + 1);
}

}  // namespace iq
