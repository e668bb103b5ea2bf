#include "core/format.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "quant/bit_stream.h"

namespace iq {
namespace {

constexpr uint32_t kDirMagic = 0x49514431;  // "IQD1"

struct DirFileHeader {
  uint32_t magic;
  uint32_t dims;
  uint64_t total_points;
  uint32_t block_size;
  uint32_t metric;
  double fractal_dimension;
  uint32_t quantized;
  uint32_t num_entries;
  uint32_t knn_k;
  uint32_t reserved;
};
static_assert(sizeof(DirFileHeader) == 48);

}  // namespace

unsigned BestQuantLevel(size_t dims, uint64_t count, uint32_t block_size) {
  unsigned best = 0;
  for (unsigned g : kQuantLevels) {
    if (count <= QuantPageCapacity(dims, g, block_size)) best = g;
  }
  return best;
}

Status WriteDirectory(File& file, const IndexMeta& meta,
                      const std::vector<DirEntry>& entries) {
  DirFileHeader header{kDirMagic,
                       meta.dims,
                       meta.total_points,
                       meta.block_size,
                       meta.metric,
                       meta.fractal_dimension,
                       meta.quantized,
                       static_cast<uint32_t>(entries.size()),
                       meta.knn_k,
                       0};
  IQ_RETURN_NOT_OK(file.Resize(0));
  IQ_RETURN_NOT_OK(file.Write(0, sizeof(header), &header));
  const size_t dims = meta.dims;
  const size_t entry_bytes = DirEntryBytes(dims);
  std::vector<uint8_t> buf(entry_bytes);
  uint64_t offset = sizeof(header);
  for (const DirEntry& entry : entries) {
    uint8_t* p = buf.data();
    std::memcpy(p, entry.mbr.lower().data(), sizeof(float) * dims);
    p += sizeof(float) * dims;
    std::memcpy(p, entry.mbr.upper().data(), sizeof(float) * dims);
    p += sizeof(float) * dims;
    std::memcpy(p, &entry.qpage_block, sizeof(uint32_t));
    p += sizeof(uint32_t);
    std::memcpy(p, &entry.count, sizeof(uint32_t));
    p += sizeof(uint32_t);
    std::memcpy(p, &entry.quant_bits, sizeof(uint32_t));
    p += sizeof(uint32_t);
    const uint32_t reserved = 0;
    std::memcpy(p, &reserved, sizeof(uint32_t));
    p += sizeof(uint32_t);
    std::memcpy(p, &entry.exact.offset, sizeof(uint64_t));
    p += sizeof(uint64_t);
    std::memcpy(p, &entry.exact.length, sizeof(uint64_t));
    IQ_RETURN_NOT_OK(file.Write(offset, entry_bytes, buf.data()));
    offset += entry_bytes;
  }
  return Status::OK();
}

Result<DirEntry> ParseDirEntry(std::span<const uint8_t> bytes, size_t dims) {
  if (dims == 0) {
    return Status::InvalidArgument("directory entry with zero dims");
  }
  if (bytes.size() < DirEntryBytes(dims)) {
    return Status::Corruption("short directory entry: " +
                              std::to_string(bytes.size()) + " bytes, need " +
                              std::to_string(DirEntryBytes(dims)));
  }
  const uint8_t* p = bytes.data();
  std::vector<float> lb(dims), ub(dims);
  std::memcpy(lb.data(), p, sizeof(float) * dims);
  p += sizeof(float) * dims;
  std::memcpy(ub.data(), p, sizeof(float) * dims);
  p += sizeof(float) * dims;
  for (size_t i = 0; i < dims; ++i) {
    if (!std::isfinite(lb[i]) || !std::isfinite(ub[i]) || lb[i] > ub[i]) {
      return Status::Corruption("directory entry MBR bounds invalid in dim " +
                                std::to_string(i));
    }
  }
  DirEntry entry;
  entry.mbr = Mbr::FromBounds(std::move(lb), std::move(ub));
  std::memcpy(&entry.qpage_block, p, sizeof(uint32_t));
  p += sizeof(uint32_t);
  std::memcpy(&entry.count, p, sizeof(uint32_t));
  p += sizeof(uint32_t);
  std::memcpy(&entry.quant_bits, p, sizeof(uint32_t));
  p += sizeof(uint32_t) + sizeof(uint32_t);  // skip reserved
  std::memcpy(&entry.exact.offset, p, sizeof(uint64_t));
  p += sizeof(uint64_t);
  std::memcpy(&entry.exact.length, p, sizeof(uint64_t));
  if (!IsQuantLevel(entry.quant_bits)) {
    return Status::Corruption("invalid quantization level " +
                              std::to_string(entry.quant_bits));
  }
  return entry;
}

Result<IndexMeta> ReadDirectory(File& file, std::vector<DirEntry>* entries) {
  if (file.Size() < sizeof(DirFileHeader)) {
    return Status::Corruption("directory file too small");
  }
  DirFileHeader header;
  IQ_RETURN_NOT_OK(file.Read(0, sizeof(header), &header));
  if (header.magic != kDirMagic) {
    return Status::Corruption("bad directory magic");
  }
  if (header.dims == 0 || header.dims > 4096) {
    return Status::Corruption("implausible dimensionality " +
                              std::to_string(header.dims));
  }
  const size_t dims = header.dims;
  const size_t entry_bytes = DirEntryBytes(dims);
  const uint64_t want =
      sizeof(header) + static_cast<uint64_t>(header.num_entries) * entry_bytes;
  if (file.Size() < want) {
    return Status::Corruption("truncated directory file");
  }
  entries->clear();
  entries->reserve(header.num_entries);
  std::vector<uint8_t> buf(entry_bytes);
  uint64_t offset = sizeof(header);
  for (uint32_t i = 0; i < header.num_entries; ++i) {
    IQ_RETURN_NOT_OK(file.Read(offset, entry_bytes, buf.data()));
    offset += entry_bytes;
    IQ_ASSIGN_OR_RETURN(DirEntry entry,
                        ParseDirEntry(std::span(buf.data(), buf.size()), dims));
    entries->push_back(std::move(entry));
  }
  IndexMeta meta;
  meta.dims = header.dims;
  meta.total_points = header.total_points;
  meta.block_size = header.block_size;
  meta.metric = header.metric;
  meta.fractal_dimension = header.fractal_dimension;
  meta.quantized = header.quantized;
  meta.knn_k = std::max<uint32_t>(1, header.knn_k);
  return meta;
}

Status QuantPageCodec::EncodeCells(unsigned g,
                                   const std::vector<uint32_t>& cells,
                                   uint8_t* page) const {
  if (dims_ == 0 || block_size_ <= kQuantPageHeaderBytes) {
    return Status::InvalidArgument("quantized page codec misconfigured");
  }
  if (g >= kExactBits || !IsQuantLevel(g)) {
    return Status::InvalidArgument("EncodeCells requires g in {1,2,4,8,16}");
  }
  if (cells.size() % dims_ != 0) {
    return Status::InvalidArgument("cells not a multiple of dims");
  }
  const uint32_t count = static_cast<uint32_t>(cells.size() / dims_);
  if (count > QuantPageCapacity(dims_, g, block_size_)) {
    return Status::InvalidArgument("too many points for quantized page");
  }
  std::memset(page, 0, block_size_);
  QuantPageHeader header{kQuantPageMagic, static_cast<uint16_t>(g), count};
  std::memcpy(page, &header, sizeof(header));
  BitWriter writer(page + kQuantPageHeaderBytes);
  for (uint32_t cell : cells) writer.Put(cell, g);
  writer.Flush();
  return Status::OK();
}

Status QuantPageCodec::EncodeExact(const std::vector<PointId>& ids,
                                   const std::vector<float>& coords,
                                   uint8_t* page) const {
  if (dims_ == 0 || block_size_ <= kQuantPageHeaderBytes) {
    return Status::InvalidArgument("quantized page codec misconfigured");
  }
  if (coords.size() != ids.size() * dims_) {
    return Status::InvalidArgument("coords/ids size mismatch");
  }
  const uint32_t count = static_cast<uint32_t>(ids.size());
  if (count > QuantPageCapacity(dims_, kExactBits, block_size_)) {
    return Status::InvalidArgument("too many points for exact page");
  }
  std::memset(page, 0, block_size_);
  QuantPageHeader header{kQuantPageMagic, kExactBits, count};
  std::memcpy(page, &header, sizeof(header));
  uint8_t* p = page + kQuantPageHeaderBytes;
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(p, &ids[i], sizeof(uint32_t));
    p += sizeof(uint32_t);
    std::memcpy(p, coords.data() + i * dims_, sizeof(float) * dims_);
    p += sizeof(float) * dims_;
  }
  return Status::OK();
}

Result<QuantPageHeader> QuantPageCodec::DecodeHeader(
    const uint8_t* page) const {
  if (dims_ == 0 || block_size_ <= kQuantPageHeaderBytes) {
    return Status::InvalidArgument("quantized page codec misconfigured");
  }
  QuantPageHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.magic != kQuantPageMagic) {
    return Status::Corruption("bad quantized page magic");
  }
  if (!IsQuantLevel(header.bits)) {
    return Status::Corruption("bad quantization level in page header");
  }
  if (header.count > QuantPageCapacity(dims_, header.bits, block_size_)) {
    return Status::Corruption("quantized page over capacity");
  }
  return header;
}

Status QuantPageCodec::DecodeCells(const uint8_t* page,
                                   std::vector<uint32_t>* cells) const {
  IQ_ASSIGN_OR_RETURN(QuantPageHeader header, DecodeHeader(page));
  if (header.bits >= kExactBits) {
    return Status::InvalidArgument("DecodeCells on an exact page");
  }
  const size_t n = static_cast<size_t>(header.count) * dims_;
  cells->resize(n);
  // DecodeHeader bounded count by QuantPageCapacity, so all n*g bits lie
  // inside the payload: the unpack loops below never read past it.
  // BitWriter packs LSB-first: a g = 8 field is one byte, a g = 16
  // field a little-endian u16, and a g < 8 field never straddles a byte.
  const uint8_t* in = page + kQuantPageHeaderBytes;
  uint32_t* out = cells->data();
  const unsigned g = header.bits;
  if (g == 16) {
    for (size_t j = 0; j < n; ++j) {
      out[j] = in[2 * j] | (static_cast<uint32_t>(in[2 * j + 1]) << 8);
    }
  } else if (g == 8) {
    std::copy(in, in + n, out);
  } else {
    const uint32_t mask = (1u << g) - 1;
    for (size_t j = 0; j < n; ++j) {
      out[j] = (in[j * g / 8] >> (j * g % 8)) & mask;
    }
  }
  return Status::OK();
}

Status QuantPageCodec::DecodeExact(const uint8_t* page,
                                   std::vector<PointId>* ids,
                                   std::vector<float>* coords) const {
  IQ_ASSIGN_OR_RETURN(QuantPageHeader header, DecodeHeader(page));
  if (header.bits != kExactBits) {
    return Status::InvalidArgument("DecodeExact on a quantized page");
  }
  const uint64_t need = static_cast<uint64_t>(header.count) *
                        (sizeof(uint32_t) + sizeof(float) * dims_);
  if (need > block_size_ - kQuantPageHeaderBytes) {
    return Status::Corruption("exact records exceed page payload");
  }
  ids->resize(header.count);
  coords->resize(static_cast<size_t>(header.count) * dims_);
  const uint8_t* p = page + kQuantPageHeaderBytes;
  for (uint32_t i = 0; i < header.count; ++i) {
    std::memcpy(&(*ids)[i], p, sizeof(uint32_t));
    p += sizeof(uint32_t);
    std::memcpy(coords->data() + i * dims_, p, sizeof(float) * dims_);
    p += sizeof(float) * dims_;
  }
  return Status::OK();
}

void ExactPageCodec::Encode(const std::vector<PointId>& ids,
                            const std::vector<float>& coords,
                            std::vector<uint8_t>* out) const {
  const size_t record = ExactRecordBytes(dims_);
  out->resize(ids.size() * record);
  uint8_t* p = out->data();
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(p, &ids[i], sizeof(uint32_t));
    std::memcpy(p + sizeof(uint32_t), coords.data() + i * dims_,
                sizeof(float) * dims_);
    p += record;
  }
}

Status ExactPageCodec::Decode(const uint8_t* data, size_t size,
                              std::vector<PointId>* ids,
                              std::vector<float>* coords) const {
  const size_t record = ExactRecordBytes(dims_);
  if (size % record != 0) {
    return Status::Corruption("exact page size not a record multiple");
  }
  const size_t count = size / record;
  ids->resize(count);
  coords->resize(count * dims_);
  const uint8_t* p = data;
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(&(*ids)[i], p, sizeof(uint32_t));
    std::memcpy(coords->data() + i * dims_, p + sizeof(uint32_t),
                sizeof(float) * dims_);
    p += record;
  }
  return Status::OK();
}

}  // namespace iq
