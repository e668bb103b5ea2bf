#ifndef IQ_IO_DISK_MODEL_H_
#define IQ_IO_DISK_MODEL_H_

#include <atomic>
#include <cstdint>

#include "common/math_utils.h"

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

/// Cumulative I/O accounting for one operation, index or experiment.
struct IoStats {
  uint64_t seeks = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  /// Simulated elapsed I/O time in seconds.
  double io_time_s = 0.0;

  IoStats operator-(const IoStats& other) const {
    IoStats out;
    out.seeks = seeks - other.seeks;
    out.blocks_read = blocks_read - other.blocks_read;
    out.blocks_written = blocks_written - other.blocks_written;
    out.io_time_s = io_time_s - other.io_time_s;
    return out;
  }

  IoStats& operator+=(const IoStats& other) {
    seeks += other.seeks;
    blocks_read += other.blocks_read;
    blocks_written += other.blocks_written;
    io_time_s += other.io_time_s;
    return *this;
  }
};

/// The disk head of one operation (a query, an update, a build, a
/// validation scan) and that operation's own I/O clock. Every public
/// index operation starts from a fresh head — the paper's "head
/// invalidated before each query" (§2) — so its first access pays a
/// seek and its cost never depends on what ran before or beside it.
/// Owned by the operation's thread; never shared.
struct DiskHead {
  /// False until the first access: a fresh head is positioned nowhere.
  bool valid = false;
  uint32_t file = 0;
  /// Next block under the head.
  uint64_t next_block = 0;
  /// This operation's I/O so far; `stats.io_time_s` is its simulated
  /// clock.
  IoStats stats;
};

/// Deterministic disk simulator.
///
/// The model is the one the paper uses (§2): files are linear block
/// arrays; accessing a block sequence costs one seek (t_seek) unless the
/// head is already positioned at its first block, plus t_xfer per block
/// transferred. How far a seek travels is irrelevant (footnote 1 in the
/// paper). The head position is tracked across files: reading block b of
/// file f immediately after block b-1 of the same file is sequential.
///
/// The head belongs to the operation (DiskHead), not to the disk: every
/// Charge* moves the caller's head and adds to the caller's IoStats, so
/// per-operation costs are exact under any concurrency. The model keeps
/// only its immutable parameters, a file-id counter and running totals
/// over all operations (relaxed atomics, added charge by charge in the
/// order the head's clock takes them).
/// All indexes in this library charge their I/O through a DiskModel so
/// their simulated query times are directly comparable.
///
/// Thread-safe: any number of threads may charge one model at once,
/// each with its own head.
class DiskModel {
 public:
  explicit DiskModel(DiskParameters params = DiskParameters())
      : params_(params) {}

  const DiskParameters& params() const { return params_; }

  /// Running totals over every operation charged so far. Each field is
  /// read on its own; a snapshot taken while other threads charge may
  /// mix fields from before and after one of their charges.
  IoStats stats() const;

  void ResetStats();

  /// Simulated clock: seconds of I/O charged so far, over all
  /// operations.
  double Now() const {
    return totals_.io_time_s.load(std::memory_order_relaxed);
  }

  /// Charges a read of `count` blocks starting at `first_block` of file
  /// `file_id` to `head`. Charges a seek unless the head is already
  /// there.
  void ChargeRead(DiskHead& head, uint32_t file_id, uint64_t first_block,
                  uint64_t count);

  /// Charges a write (same cost structure as a read in this model).
  void ChargeWrite(DiskHead& head, uint32_t file_id, uint64_t first_block,
                   uint64_t count);

  /// Charges a read of a byte range, rounded out to whole blocks.
  void ChargeReadBytes(DiskHead& head, uint32_t file_id, uint64_t offset,
                       uint64_t length);

  /// No-op. Every operation already starts from a fresh DiskHead; this
  /// stays for perfbench/, its only caller, which invalidates by hand
  /// before each operation.
  void InvalidateHead() {}

  /// Allocates a unique file id for head tracking.
  uint32_t RegisterFile() {
    return next_file_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void Access(DiskHead& head, uint32_t file_id, uint64_t first_block,
              uint64_t count, bool is_write);

  struct Totals {
    std::atomic<uint64_t> seeks{0};
    std::atomic<uint64_t> blocks_read{0};
    std::atomic<uint64_t> blocks_written{0};
    std::atomic<double> io_time_s{0.0};
  };

  const DiskParameters params_;
  std::atomic<uint32_t> next_file_id_{0};
  Totals totals_;
};

}  // namespace iq

#endif  // IQ_IO_DISK_MODEL_H_
