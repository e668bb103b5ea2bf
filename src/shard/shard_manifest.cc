#include "shard/shard_manifest.h"

#include <cstring>
#include <limits>
#include <utility>

namespace iq {
namespace {

constexpr uint32_t kMagic = 0x4951534D;  // "IQSM"
constexpr uint32_t kVersion = 1;
// Parse-time sanity caps: a manifest claiming more than this is corrupt
// long before it is big.
constexpr uint32_t kMaxShards = 1u << 20;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint32_t kMaxDims = 1u << 16;

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  uint8_t raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.insert(out.end(), raw, raw + sizeof(v));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  uint8_t raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.insert(out.end(), raw, raw + sizeof(v));
}

void AppendF32(std::vector<uint8_t>& out, float v) {
  uint8_t raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.insert(out.end(), raw, raw + sizeof(v));
}

/// Bounds-checked cursor over the raw manifest bytes: every Read*
/// fails (returns false) instead of walking past the end, so a
/// truncated file surfaces as Corruption, never as a wild read.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }

  bool ReadString(size_t length, std::string* out) {
    if (size_ - offset_ < length) return false;
    out->assign(reinterpret_cast<const char*>(data_ + offset_), length);
    offset_ += length;
    return true;
  }

  bool AtEnd() const { return offset_ == size_; }

 private:
  bool ReadRaw(void* out, size_t length) {
    if (size_ - offset_ < length) return false;
    std::memcpy(out, data_ + offset_, length);
    offset_ += length;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace

ShardManifest::ShardManifest(size_t dims, Metric metric, ShardPlan plan,
                             size_t plan_dim)
    : dims_(dims), metric_(metric), plan_(plan), plan_dim_(plan_dim) {}

void ShardManifest::AddShard(ShardInfo info) {
  total_points_ += info.points;
  shards_.push_back(std::move(info));
}

Status ShardManifest::Validate() const {
  if (dims_ == 0) {
    return Status::InvalidArgument("shard manifest with zero dims");
  }
  if (shards_.empty()) {
    return Status::InvalidArgument("shard manifest with no shards");
  }
  if (plan_ == ShardPlan::kRankPartition && plan_dim_ >= dims_) {
    return Status::InvalidArgument("shard manifest plan_dim out of range");
  }
  uint64_t sum = 0;
  for (const ShardInfo& shard : shards_) {
    if (shard.name.empty()) {
      return Status::InvalidArgument("shard manifest entry with empty name");
    }
    if (shard.bounds.dims() != dims_) {
      return Status::InvalidArgument("shard manifest bounds dims mismatch for " +
                                     shard.name);
    }
    sum += shard.points;
  }
  if (sum != total_points_) {
    return Status::InvalidArgument(
        "shard manifest point counts do not sum to total");
  }
  return Status::OK();
}

Status ShardManifest::Write(Storage& storage, const std::string& name) const {
  IQ_RETURN_NOT_OK(Validate());
  std::vector<uint8_t> out;
  AppendU32(out, kMagic);
  AppendU32(out, kVersion);
  AppendU32(out, static_cast<uint32_t>(dims_));
  AppendU32(out, static_cast<uint32_t>(metric_));
  AppendU32(out, static_cast<uint32_t>(plan_));
  AppendU32(out, static_cast<uint32_t>(plan_dim_));
  AppendU32(out, static_cast<uint32_t>(shards_.size()));
  AppendU32(out, 0);  // reserved
  AppendU64(out, total_points_);
  for (const ShardInfo& shard : shards_) {
    AppendU32(out, static_cast<uint32_t>(shard.name.size()));
    out.insert(out.end(), shard.name.begin(), shard.name.end());
    AppendU64(out, shard.points);
    for (size_t d = 0; d < dims_; ++d) AppendF32(out, shard.bounds.lb(d));
    for (size_t d = 0; d < dims_; ++d) AppendF32(out, shard.bounds.ub(d));
  }
  IQ_ASSIGN_OR_RETURN(std::shared_ptr<File> file, storage.Create(name));
  return file->Write(0, out.size(), out.data());
}

Result<ShardManifest> ShardManifest::Read(Storage& storage,
                                          const std::string& name) {
  IQ_ASSIGN_OR_RETURN(std::shared_ptr<File> file, storage.Open(name));
  std::vector<uint8_t> raw(file->Size());
  IQ_RETURN_NOT_OK(file->Read(0, raw.size(), raw.data()));
  ByteReader reader(raw.data(), raw.size());

  uint32_t magic = 0, version = 0, dims = 0, metric = 0;
  uint32_t plan = 0, plan_dim = 0, num_shards = 0, reserved = 0;
  uint64_t total_points = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version) ||
      !reader.ReadU32(&dims) || !reader.ReadU32(&metric) ||
      !reader.ReadU32(&plan) || !reader.ReadU32(&plan_dim) ||
      !reader.ReadU32(&num_shards) || !reader.ReadU32(&reserved) ||
      !reader.ReadU64(&total_points)) {
    return Status::Corruption("truncated shard manifest header in " + name);
  }
  if (magic != kMagic) {
    return Status::Corruption("bad shard manifest magic in " + name);
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported shard manifest version " +
                              std::to_string(version) + " in " + name);
  }
  if (dims == 0 || dims > kMaxDims) {
    return Status::Corruption("implausible shard manifest dims in " + name);
  }
  if (metric > static_cast<uint32_t>(Metric::kLMax)) {
    return Status::Corruption("unknown metric in shard manifest " + name);
  }
  if (plan > static_cast<uint32_t>(ShardPlan::kRankPartition)) {
    return Status::Corruption("unknown shard plan in manifest " + name);
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::Corruption("implausible shard count in manifest " + name);
  }

  ShardManifest manifest(dims, static_cast<Metric>(metric),
                         static_cast<ShardPlan>(plan), plan_dim);
  for (uint32_t i = 0; i < num_shards; ++i) {
    uint32_t name_len = 0;
    ShardInfo shard;
    if (!reader.ReadU32(&name_len) || name_len > kMaxNameLen ||
        !reader.ReadString(name_len, &shard.name) ||
        !reader.ReadU64(&shard.points)) {
      return Status::Corruption("truncated shard entry in manifest " + name);
    }
    std::vector<float> lb(dims), ub(dims);
    for (size_t d = 0; d < dims; ++d) {
      if (!reader.ReadF32(&lb[d])) {
        return Status::Corruption("truncated shard bounds in manifest " + name);
      }
    }
    for (size_t d = 0; d < dims; ++d) {
      if (!reader.ReadF32(&ub[d])) {
        return Status::Corruption("truncated shard bounds in manifest " + name);
      }
    }
    // Empty shards serialize inverted (+inf/-inf) bounds, which
    // FromBounds rejects — any inverted side maps back to Empty.
    bool inverted = false;
    for (size_t d = 0; d < dims; ++d) inverted = inverted || !(lb[d] <= ub[d]);
    if (inverted) {
      shard.bounds = Mbr::Empty(dims);
    } else {
      shard.bounds = Mbr::FromBounds(std::move(lb), std::move(ub));
    }
    manifest.AddShard(std::move(shard));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in shard manifest " + name);
  }
  if (manifest.total_points_ != total_points) {
    return Status::Corruption(
        "shard manifest total_points disagrees with entries in " + name);
  }
  IQ_RETURN_NOT_OK(manifest.Validate());
  return manifest;
}

std::string ShardManifest::ShardIndexName(const std::string& base,
                                          size_t shard) {
  return base + "_s" + std::to_string(shard);
}

}  // namespace iq
