#ifndef IQ_IO_STORAGE_H_
#define IQ_IO_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace iq {

/// Random-access byte file. Raw data movement only — simulated timing is
/// charged separately through DiskModel by the block/extent layers.
///
/// Concurrency contract: concurrent Read calls are safe on every
/// implementation (positional pread-style reads, no shared cursor).
/// Write/Resize require external exclusion against other writers and
/// against readers of the affected range; a single writer appending
/// past EOF is safe against concurrent readers of earlier ranges, so
/// bytes a reader has located stay readable whatever the writer
/// appends. Every implementation must provide it, so that code and
/// tests written against one File behave the same on the other:
/// PosixFile by pread/pwrite positional independence, MemoryFile by an
/// internal shared lock around its backing vector.
class File {
 public:
  virtual ~File() = default;

  /// Reads exactly `length` bytes at `offset` into `out`. Fails with
  /// IOError on a short read.
  virtual Status Read(uint64_t offset, uint64_t length, void* out) const = 0;

  /// Writes `length` bytes at `offset`, extending the file if needed.
  virtual Status Write(uint64_t offset, uint64_t length, const void* data) = 0;

  /// Truncates or extends (zero-filled) the file to `size` bytes.
  virtual Status Resize(uint64_t size) = 0;

  virtual uint64_t Size() const = 0;
};

/// Factory for named files; RocksDB-Env-style seam that lets the whole
/// system run against OS files or entirely in memory (the default for
/// tests and benchmarks — timing comes from DiskModel either way).
class Storage {
 public:
  virtual ~Storage() = default;

  /// Opens an existing file. NotFound if it does not exist.
  virtual Result<std::shared_ptr<File>> Open(const std::string& name) = 0;

  /// Creates (or truncates) a file.
  virtual Result<std::shared_ptr<File>> Create(const std::string& name) = 0;

  virtual bool Exists(const std::string& name) const = 0;

  virtual Status Delete(const std::string& name) = 0;
};

/// In-memory Storage: files are byte vectors. Deterministic and fast;
/// the default backing for experiments.
class MemoryStorage : public Storage {
 public:
  Result<std::shared_ptr<File>> Open(const std::string& name) override;
  Result<std::shared_ptr<File>> Create(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Status Delete(const std::string& name) override;

 private:
  std::map<std::string, std::shared_ptr<File>> files_;
};

/// Storage over a directory of OS files (POSIX fds, pread/pwrite).
class FileStorage : public Storage {
 public:
  /// `root` must name an existing writable directory.
  explicit FileStorage(std::string root) : root_(std::move(root)) {}

  Result<std::shared_ptr<File>> Open(const std::string& name) override;
  Result<std::shared_ptr<File>> Create(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Status Delete(const std::string& name) override;

 private:
  std::string Path(const std::string& name) const;
  std::string root_;
};

}  // namespace iq

#endif  // IQ_IO_STORAGE_H_
