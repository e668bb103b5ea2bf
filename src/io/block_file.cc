#include "io/block_file.h"

#include <algorithm>

namespace iq {

Status BlockFile::Open(Storage& storage, const std::string& name,
                       DiskModel& disk, bool create) {
  Result<std::shared_ptr<File>> file =
      create ? storage.Create(name) : storage.Open(name);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  disk_ = &disk;
  file_id_ = disk.RegisterFile();
  return Status::OK();
}

uint64_t BlockFile::NumBlocks() const {
  return CeilDiv(file_->Size(), block_size());
}

Status BlockFile::ReadRange(DiskHead& head, uint64_t first, uint64_t count,
                            void* out) const {
  if (count == 0) return Status::OK();
  if (first + count > NumBlocks()) {
    return Status::OutOfRange("block range [" + std::to_string(first) + ", " +
                              std::to_string(first + count) +
                              ") past end of file with " +
                              std::to_string(NumBlocks()) + " blocks");
  }
  disk_->ChargeRead(head, file_id_, first, count);
  return ReadRaw(first, count, out);
}

Status BlockFile::ReadRaw(uint64_t first, uint64_t count, void* out) const {
  const uint64_t bs = block_size();
  const uint64_t offset = first * bs;
  const uint64_t want = count * bs;
  const uint64_t have = std::min(want, file_->Size() - offset);
  IQ_RETURN_NOT_OK(file_->Read(offset, have, out));
  if (have < want) {
    // Final partial block: zero-fill the tail.
    std::fill(static_cast<uint8_t*>(out) + have,
              static_cast<uint8_t*>(out) + want, uint8_t{0});
  }
  return Status::OK();
}

Status BlockFile::ReadBlock(DiskHead& head, uint64_t index, void* out) const {
  return ReadRange(head, index, 1, out);
}

Status BlockFile::WriteBlock(DiskHead& head, uint64_t index,
                             const void* data) {
  if (index > NumBlocks()) {
    return Status::OutOfRange("write past end: block " + std::to_string(index));
  }
  disk_->ChargeWrite(head, file_id_, index, 1);
  return file_->Write(index * static_cast<uint64_t>(block_size()),
                      block_size(), data);
}

Result<uint64_t> BlockFile::AppendBlock(DiskHead& head, const void* data) {
  const uint64_t index = NumBlocks();
  IQ_RETURN_NOT_OK(WriteBlock(head, index, data));
  return index;
}

}  // namespace iq
