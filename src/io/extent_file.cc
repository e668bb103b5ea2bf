#include "io/extent_file.h"

namespace iq {

Status ExtentFile::Open(Storage& storage, const std::string& name,
                        DiskModel& disk, bool create) {
  Result<std::shared_ptr<File>> file =
      create ? storage.Create(name) : storage.Open(name);
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  disk_ = &disk;
  file_id_ = disk.RegisterFile();
  return Status::OK();
}

Result<Extent> ExtentFile::Append(DiskHead& head, const void* data,
                                  uint64_t length) {
  Extent extent{file_->Size(), length};
  if (length > 0) {
    disk_->ChargeWrite(head, file_id_,
                       extent.offset / disk_->params().block_size,
                       BlocksSpanned(extent));
    IQ_RETURN_NOT_OK(file_->Write(extent.offset, length, data));
  }
  return extent;
}

Status ExtentFile::Read(DiskHead& head, const Extent& extent,
                        void* out) const {
  if (extent.offset + extent.length > file_->Size()) {
    return Status::OutOfRange("extent past end of file");
  }
  if (extent.length == 0) return Status::OK();
  disk_->ChargeReadBytes(head, file_id_, extent.offset, extent.length);
  return file_->Read(extent.offset, extent.length, out);
}

uint64_t ExtentFile::BlocksSpanned(const Extent& extent) const {
  if (extent.length == 0) return 0;
  const uint64_t bs = disk_->params().block_size;
  const uint64_t first = extent.offset / bs;
  const uint64_t last = (extent.offset + extent.length - 1) / bs;
  return last - first + 1;
}

}  // namespace iq
