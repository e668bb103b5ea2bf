#ifndef IQ_IO_EXTENT_FILE_H_
#define IQ_IO_EXTENT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/contract.h"
#include "common/result.h"
#include "io/disk_model.h"
#include "io/storage.h"

namespace iq {

/// Location of a variable-size record inside an ExtentFile.
struct Extent {
  uint64_t offset = 0;  // bytes
  uint64_t length = 0;  // bytes

  bool operator==(const Extent&) const = default;
};

/// Append-oriented file of variable-size extents — the IQ-tree's third
/// level (exact data pages have variable size, paper §3.1).
///
/// Reads charge the calling operation's DiskHead for every block the
/// extent touches; a read that continues where the same head's previous
/// access ended is sequential.
///
/// Concurrency: Read is safe from many threads at once, each with its
/// own head (positional File reads, atomic DiskModel totals);
/// Append/Overwrite need external exclusion, per the single-writer
/// model (docs/concurrency.md).
///
/// Lifecycle: default-construct, then Open() exactly once before any
/// I/O — the same Open-before-I/O protocol (common/contract.h) as
/// BlockFile, enforced by the iqlint `typestate` check.
class ExtentFile {
 public:
  IQ_TYPESTATE("closed");

  ExtentFile() = default;

  /// Opens or creates `name` inside `storage` and registers with the
  /// disk model. The DiskModel must outlive the ExtentFile.
  Status Open(Storage& storage, const std::string& name, DiskModel& disk,
              bool create) IQ_TS_TRANSITION("closed", "open");

  /// Appends `length` bytes and returns where they landed.
  Result<Extent> Append(DiskHead& head, const void* data, uint64_t length)
      IQ_TS_REQUIRES("open");

  /// Reads a whole extent into `out` (must hold extent.length bytes).
  Status Read(DiskHead& head, const Extent& extent, void* out) const
      IQ_TS_REQUIRES("open");

  /// Overwrites an extent in place (length must match).
  Status Overwrite(DiskHead& head, const Extent& extent, const void* data)
      IQ_TS_REQUIRES("open");

  uint64_t SizeBytes() const IQ_TS_REQUIRES("open") { return file_->Size(); }

  /// Blocks an extent occupies (what one Read of it will be charged,
  /// modulo head position) — used by the cost model for refinement cost.
  uint64_t BlocksSpanned(const Extent& extent) const IQ_TS_REQUIRES("open");

  uint32_t file_id() const { return file_id_; }

 private:
  std::shared_ptr<File> file_;
  DiskModel* disk_ = nullptr;
  uint32_t file_id_ = 0;
};

}  // namespace iq

#endif  // IQ_IO_EXTENT_FILE_H_
