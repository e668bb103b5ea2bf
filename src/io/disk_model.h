#ifndef IQ_IO_DISK_MODEL_H_
#define IQ_IO_DISK_MODEL_H_

#include <cstdint>

#include "common/math_utils.h"
#include "common/thread_annotations.h"
#include "common/mutex.h"

namespace iq {

/// Physical parameters of the simulated disk. The paper's cost model and
/// page scheduling are written entirely in terms of t_seek and t_xfer;
/// these defaults approximate a late-1990s SCSI disk (~10 ms average
/// seek, ~4 MB/s sustained transfer at an 8 KiB block).
struct DiskParameters {
  /// Time for one random positioning operation, in seconds.
  double seek_time_s = 0.010;
  /// Time to transfer one block, in seconds.
  double xfer_time_s = 0.002;
  /// Size of one block in bytes. Every file in the system is charged in
  /// whole blocks.
  uint32_t block_size = 8192;

  /// Maximum number of blocks worth over-reading instead of seeking
  /// (the paper's v = t_seek / t_xfer).
  double SeekEquivalentBlocks() const { return seek_time_s / xfer_time_s; }
};

/// Cumulative I/O accounting for one index / one experiment.
struct IoStats {
  uint64_t seeks = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  /// Simulated elapsed I/O time in seconds.
  double io_time_s = 0.0;

  void Reset() { *this = IoStats{}; }

  IoStats operator-(const IoStats& other) const {
    IoStats out;
    out.seeks = seeks - other.seeks;
    out.blocks_read = blocks_read - other.blocks_read;
    out.blocks_written = blocks_written - other.blocks_written;
    out.io_time_s = io_time_s - other.io_time_s;
    return out;
  }
};

/// Deterministic single-head disk simulator.
///
/// The model is the one the paper uses (§2): files are linear block
/// arrays; accessing a block sequence costs one seek (t_seek) unless the
/// head is already positioned at its first block, plus t_xfer per block
/// transferred. How far a seek travels is irrelevant (footnote 1 in the
/// paper). The head position is tracked across files: reading block b of
/// file f immediately after block b-1 of the same file is sequential.
///
/// All indexes in this library charge their I/O through one DiskModel so
/// their simulated query times are directly comparable.
///
/// Thread-safe: one internal mutex guards the cumulative stats and the
/// head position, so concurrent queries can charge the same model
/// without corrupting the accounting. Head tracking stays meaningful
/// only for sequential use — under concurrency every thread moves the
/// one simulated head, so seek counts become an upper bound (the
/// interleaving is still deterministic accounting, just not a faithful
/// single-query cost; see docs/concurrency.md).
class DiskModel {
 public:
  explicit DiskModel(DiskParameters params = DiskParameters())
      : params_(params) {}

  const DiskParameters& params() const { return params_; }

  /// Consistent snapshot of the cumulative accounting.
  IoStats stats() const IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

  void ResetStats() IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_.Reset();
  }

  /// Simulated clock (seconds of I/O performed so far).
  double Now() const IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_.io_time_s;
  }

  /// Charges a read of `count` blocks starting at `first_block` of file
  /// `file_id`. Charges a seek unless the head is already there.
  void ChargeRead(uint32_t file_id, uint64_t first_block, uint64_t count)
      IQ_EXCLUDES(mu_);

  /// Charges a write (same cost structure as a read in this model).
  void ChargeWrite(uint32_t file_id, uint64_t first_block, uint64_t count)
      IQ_EXCLUDES(mu_);

  /// Charges a read of a byte range, rounded out to whole blocks.
  void ChargeReadBytes(uint32_t file_id, uint64_t offset, uint64_t length)
      IQ_EXCLUDES(mu_);

  /// Forgets the head position (e.g. after another process used the
  /// disk); the next access will pay a seek.
  void InvalidateHead() IQ_EXCLUDES(mu_);

  /// Allocates a unique file id for head tracking.
  uint32_t RegisterFile() IQ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_file_id_++;
  }

 private:
  void Access(uint32_t file_id, uint64_t first_block, uint64_t count,
              bool is_write) IQ_REQUIRES(mu_);

  const DiskParameters params_;

  mutable Mutex mu_{IQ_LOCK_RANK(60)};
  IoStats stats_ IQ_GUARDED_BY(mu_);
  uint32_t next_file_id_ IQ_GUARDED_BY(mu_) = 0;
  bool head_valid_ IQ_GUARDED_BY(mu_) = false;
  uint32_t head_file_ IQ_GUARDED_BY(mu_) = 0;
  uint64_t head_block_ IQ_GUARDED_BY(mu_) = 0;  // next block under the head
};

}  // namespace iq

#endif  // IQ_IO_DISK_MODEL_H_
