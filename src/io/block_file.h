#ifndef IQ_IO_BLOCK_FILE_H_
#define IQ_IO_BLOCK_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/contract.h"
#include "common/result.h"
#include "io/disk_model.h"
#include "io/storage.h"

namespace iq {

/// A file of fixed-size blocks with simulated-disk accounting.
///
/// Every read/write is charged through the DiskModel to the calling
/// operation's DiskHead: a seek if that head is elsewhere plus t_xfer
/// per block. ReadRange is the primitive the page schedulers build on —
/// reading blocks [first, first+count) in one call models one
/// sequential transfer (possibly over-reading blocks the caller does
/// not need).
///
/// Concurrency: ReadRange/ReadBlock are safe from many threads at once,
/// each with its own head — the backing File reads positionally
/// (pread-style) and the DiskModel's totals are atomic. Writes need
/// external exclusion, per the single-writer model
/// (docs/concurrency.md).
///
/// Lifecycle: default-construct, then Open() exactly once before any
/// I/O — the Open-before-I/O protocol (common/contract.h) that the
/// iqlint `typestate` check enforces statically on tracked handles.
class BlockFile {
 public:
  IQ_TYPESTATE("closed");

  BlockFile() = default;

  /// Opens or creates `name` inside `storage` and registers with the
  /// disk model. The DiskModel must outlive the BlockFile.
  Status Open(Storage& storage, const std::string& name, DiskModel& disk,
              bool create) IQ_TS_TRANSITION("closed", "open");

  uint32_t block_size() const IQ_TS_REQUIRES("open") {
    return disk_->params().block_size;
  }
  uint64_t NumBlocks() const IQ_TS_REQUIRES("open");

  /// Reads `count` blocks starting at `first` into `out` (must hold
  /// count * block_size bytes). Charges one access to `head`.
  Status ReadRange(DiskHead& head, uint64_t first, uint64_t count,
                   void* out) const IQ_TS_REQUIRES("open");

  /// Reads one block.
  Status ReadBlock(DiskHead& head, uint64_t index, void* out) const
      IQ_TS_REQUIRES("open");

  /// Writes one block (extends the file if index == NumBlocks()).
  Status WriteBlock(DiskHead& head, uint64_t index, const void* data)
      IQ_TS_REQUIRES("open");

  /// Appends a block and returns its index.
  Result<uint64_t> AppendBlock(DiskHead& head, const void* data)
      IQ_TS_REQUIRES("open");

  /// Disk-model file id (used by schedulers to reason about the head).
  uint32_t file_id() const { return file_id_; }

 private:
  /// Reads from the backing file without touching disk accounting.
  Status ReadRaw(uint64_t first, uint64_t count, void* out) const;

  std::shared_ptr<File> file_;
  DiskModel* disk_ = nullptr;
  uint32_t file_id_ = 0;
};

}  // namespace iq

#endif  // IQ_IO_BLOCK_FILE_H_
