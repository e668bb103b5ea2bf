#include "io/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace iq {

namespace {

// Real-I/O counters (POSIX files only; MemoryFile stays metric-free —
// it backs unit tests and simulated experiments whose accounting is
// the DiskModel's).
struct StorageMetrics {
  obs::Counter* reads;
  obs::Counter* writes;
  obs::Counter* read_bytes;
  obs::Counter* written_bytes;

  static const StorageMetrics& Get() {
    auto& registry = obs::MetricRegistry::Global();
    static const StorageMetrics m{
        registry.GetCounter(obs::metric::kStorageReadsTotal),
        registry.GetCounter(obs::metric::kStorageWritesTotal),
        registry.GetCounter(obs::metric::kStorageReadBytesTotal),
        registry.GetCounter(obs::metric::kStorageWrittenBytesTotal)};
    return m;
  }
};

// Byte-vector file. Unlike PosixFile (where pwrite/pread to disjoint
// ranges are independent syscalls), an appending Write can reallocate
// the whole vector out from under a concurrent reader of an old range,
// so an internal shared lock upgrades MemoryFile to the File contract
// that PosixFile meets for free: reads concurrent with appends to
// fresh ranges. Rank 95 sits above every other lock (leaf: nothing is
// acquired while holding it).
class MemoryFile : public File {
 public:
  Status Read(uint64_t offset, uint64_t length, void* out) const override {
    ReaderMutexLock lock(&mu_);
    if (offset + length > data_.size()) {
      return Status::IOError("short read: offset " + std::to_string(offset) +
                             " + length " + std::to_string(length) +
                             " past end " + std::to_string(data_.size()));
    }
    if (length > 0) std::memcpy(out, data_.data() + offset, length);
    return Status::OK();
  }

  Status Write(uint64_t offset, uint64_t length, const void* data) override {
    WriterMutexLock lock(&mu_);
    if (offset + length > data_.size()) data_.resize(offset + length);
    if (length > 0) std::memcpy(data_.data() + offset, data, length);
    return Status::OK();
  }

  Status Resize(uint64_t size) override {
    WriterMutexLock lock(&mu_);
    data_.resize(size);
    return Status::OK();
  }

  uint64_t Size() const override {
    ReaderMutexLock lock(&mu_);
    return data_.size();
  }

 private:
  mutable SharedMutex mu_{IQ_LOCK_RANK(95)};
  std::vector<uint8_t> data_ IQ_GUARDED_BY(mu_);
};

// POSIX fd file. Reads use pread(2) — positional, no shared cursor —
// so concurrent readers never race the way the previous fseek+fread
// implementation did (two threads could interleave seek and read on
// the one stdio cursor and each get the other's bytes). Writes use
// pwrite(2) and still require external exclusion per the File
// contract; the cached size is atomic so readers polling Size() while
// the single writer appends see a clean value.
class PosixFile : public File {
 public:
  PosixFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  Status Read(uint64_t offset, uint64_t length, void* out) const override {
    uint8_t* dst = static_cast<uint8_t*>(out);
    uint64_t done = 0;
    while (done < length) {
      const ssize_t n = ::pread(fd_, dst + done, length - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pread failed at offset " +
                               std::to_string(offset + done) + ": " +
                               std::strerror(errno));
      }
      if (n == 0) {
        return Status::IOError("short read at offset " +
                               std::to_string(offset));
      }
      done += static_cast<uint64_t>(n);
    }
    StorageMetrics::Get().reads->Increment();
    StorageMetrics::Get().read_bytes->Add(length);
    return Status::OK();
  }

  Status Write(uint64_t offset, uint64_t length, const void* data) override {
    const uint8_t* src = static_cast<const uint8_t*>(data);
    uint64_t done = 0;
    while (done < length) {
      const ssize_t n = ::pwrite(fd_, src + done, length - done,
                                 static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pwrite failed at offset " +
                               std::to_string(offset + done) + ": " +
                               std::strerror(errno));
      }
      done += static_cast<uint64_t>(n);
    }
    StorageMetrics::Get().writes->Increment();
    StorageMetrics::Get().written_bytes->Add(length);
    // Monotonic max: a concurrent reader's Size() moves forward only.
    const uint64_t end = offset + length;
    uint64_t cur = size_.load(std::memory_order_relaxed);
    while (end > cur &&
           !size_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }

  Status Resize(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Status::IOError("ftruncate failed for " + path_ + ": " +
                             std::strerror(errno));
    }
    size_.store(size, std::memory_order_relaxed);
    return Status::OK();
  }

  uint64_t Size() const override {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  const int fd_;
  const std::string path_;
  std::atomic<uint64_t> size_;
};

}  // namespace

Result<std::shared_ptr<File>> MemoryStorage::Open(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return it->second;
}

Result<std::shared_ptr<File>> MemoryStorage::Create(const std::string& name) {
  auto file = std::make_shared<MemoryFile>();
  files_[name] = file;
  return std::shared_ptr<File>(file);
}

bool MemoryStorage::Exists(const std::string& name) const {
  return files_.count(name) > 0;
}

Status MemoryStorage::Delete(const std::string& name) {
  if (files_.erase(name) == 0) {
    return Status::NotFound("no such file: " + name);
  }
  return Status::OK();
}

std::string FileStorage::Path(const std::string& name) const {
  return root_ + "/" + name;
}

Result<std::shared_ptr<File>> FileStorage::Open(const std::string& name) {
  const std::string path = Path(name);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open: " + path);
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return std::shared_ptr<File>(
      std::make_shared<PosixFile>(fd, path, ec ? 0 : size));
}

Result<std::shared_ptr<File>> FileStorage::Create(const std::string& name) {
  const std::string path = Path(name);
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create: " + path);
  }
  return std::shared_ptr<File>(std::make_shared<PosixFile>(fd, path, 0));
}

bool FileStorage::Exists(const std::string& name) const {
  return std::filesystem::exists(Path(name));
}

Status FileStorage::Delete(const std::string& name) {
  std::error_code ec;
  if (!std::filesystem::remove(Path(name), ec) || ec) {
    return Status::NotFound("cannot delete: " + Path(name));
  }
  return Status::OK();
}

}  // namespace iq
