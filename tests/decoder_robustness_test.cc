// Random-bytes robustness: feeding arbitrary garbage to every decoder
// and every Open() path must produce Status errors (or, for headerless
// formats, garbage-but-bounded data) — never crashes, hangs or
// out-of-bounds reads. Poor man's fuzzing, deterministic via seeds.

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/format.h"
#include "core/iq_tree.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "quant/bit_stream.h"
#include "scan/seq_scan.h"
#include "vafile/va_file.h"
#include "xtree/x_tree.h"

namespace iq {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t size) {
  std::vector<uint8_t> bytes(size);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Index(256));
  }
  return bytes;
}

TEST(DecoderRobustnessTest, QuantPageCodecOnGarbage) {
  Rng rng(1);
  const QuantPageCodec codec(8, 2048);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> page = RandomBytes(rng, 2048);
    auto header = codec.DecodeHeader(page.data());
    if (!header.ok()) continue;  // rejected, fine
    // If the header happens to parse, the decoders must still stay in
    // bounds and only ever fail with Status.
    std::vector<uint32_t> cells;
    std::vector<PointId> ids;
    std::vector<float> coords;
    if (header->bits >= kExactBits) {
      (void)codec.DecodeExact(page.data(), &ids, &coords);
    } else {
      (void)codec.DecodeCells(page.data(), &cells);
    }
  }
  // A random page passes the magic check with probability 1/65536, so
  // the loop above almost never reaches DecodeCells. Valid headers over
  // random payloads do: at capacity every field must decode in bounds
  // (the page is a heap buffer of exactly block_size bytes, so ASan
  // flags any over-read) and equal a BitReader over the same bytes;
  // above capacity DecodeCells must fail with Corruption.
  for (unsigned g : {1u, 2u, 4u, 8u, 16u}) {
    const uint32_t cap = QuantPageCapacity(8, g, 2048);
    for (uint32_t count : {cap, cap + 1, 0xFFFFFFFFu}) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<uint8_t> page = RandomBytes(rng, 2048);
        const QuantPageHeader header{kQuantPageMagic,
                                     static_cast<uint16_t>(g), count};
        std::memcpy(page.data(), &header, sizeof(header));
        std::vector<uint32_t> cells;
        const Status status = codec.DecodeCells(page.data(), &cells);
        if (count > cap) {
          EXPECT_TRUE(status.IsCorruption())
              << "g=" << g << " count=" << count << ": " << status.ToString();
          continue;
        }
        ASSERT_TRUE(status.ok()) << "g=" << g << ": " << status.ToString();
        ASSERT_EQ(cells.size(), size_t{count} * 8);
        BitReader reader(page.data() + kQuantPageHeaderBytes);
        for (size_t j = 0; j < cells.size(); ++j) {
          ASSERT_EQ(cells[j], reader.Get(g)) << "g=" << g << " field " << j;
        }
      }
    }
  }
}

TEST(DecoderRobustnessTest, ExactPageCodecOnGarbage) {
  Rng rng(2);
  const ExactPageCodec codec(5);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t size = rng.Index(300);
    std::vector<uint8_t> bytes = RandomBytes(rng, size + 1);
    std::vector<PointId> ids;
    std::vector<float> coords;
    (void)codec.Decode(bytes.data(), size, &ids, &coords);
  }
}

TEST(DecoderRobustnessTest, AllOpensRejectGarbageFiles) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    MemoryStorage storage;
    DiskModel disk(DiskParameters{0.010, 0.002, 2048});
    // Write garbage under every file name each structure expects.
    for (const char* name :
         {"g.dir", "g.qpg", "g.dat", "g.xdir", "g.xpg", "g.vaa", "g.vav",
          "g.scn"}) {
      auto file = storage.Create(name);
      ASSERT_TRUE(file.ok());
      const auto bytes = RandomBytes(rng, 64 + rng.Index(4096));
      ASSERT_TRUE((*file)->Write(0, bytes.size(), bytes.data()).ok());
    }
    EXPECT_FALSE(IqTree::Open(storage, "g", disk).ok());
    EXPECT_FALSE(XTree::Open(storage, "g", disk).ok());
    EXPECT_FALSE(VaFile::Open(storage, "g", disk).ok());
    EXPECT_FALSE(SeqScan::Open(storage, "g", disk).ok());
    EXPECT_FALSE(ReadDataset(storage, "g.dir").ok());
  }
}

// --- Targeted corruption of real index files -------------------------
//
// Unlike the random-bytes tests above, these take a correctly built
// index and damage one specific field, asserting the checked decode
// path reports a clean Status (and stays in bounds under ASan).

constexpr uint32_t kDirHeaderBytes = 48;

/// Builds a small index whose pages are quantized (g < 32, so they have
/// third-level extents) and returns its directory entries.
std::vector<DirEntry> BuildQuantizedIndex(MemoryStorage* storage,
                                          DiskModel* disk) {
  const Dataset data = GenerateUniform(3000, 4, 11);
  IqTree::Options options;
  options.fixed_quant_bits = 8;  // force g < 32 so pages carry extents
  auto tree = IqTree::Build(data, *storage, "idx", *disk, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return (*tree)->directory();
}

/// Byte offset of directory entry `index` inside the .dir file.
uint64_t EntryOffset(size_t index, size_t dims) {
  return kDirHeaderBytes + index * DirEntryBytes(dims);
}

/// Index of the first entry stored at a quantized level (has an extent).
size_t FirstQuantizedEntry(const std::vector<DirEntry>& dir) {
  for (size_t i = 0; i < dir.size(); ++i) {
    if (dir[i].quant_bits < kExactBits) return i;
  }
  ADD_FAILURE() << "no quantized entry in test index";
  return 0;
}

TEST(CorruptIndexTest, TruncatedDirectoryFileRejected) {
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  const auto dir = BuildQuantizedIndex(&storage, &disk);
  ASSERT_GE(dir.size(), 2u);
  auto file = storage.Open("idx.dir");
  ASSERT_TRUE(file.ok());
  const uint64_t full = (*file)->Size();
  // Cut before the header, inside the header, at a whole-entry boundary
  // minus one, and mid-entry: every truncation must be a clean error.
  for (const uint64_t cut :
       {uint64_t{0}, uint64_t{7}, uint64_t{kDirHeaderBytes - 1},
        EntryOffset(1, 4) - 1, EntryOffset(1, 4) + 13, full - 1}) {
    ASSERT_TRUE((*file)->Resize(cut).ok());
    auto opened = IqTree::Open(storage, "idx", disk);
    EXPECT_FALSE(opened.ok()) << "cut at " << cut;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
}

TEST(CorruptIndexTest, OutOfRangeQuantBitsRejected) {
  for (const uint32_t bad_bits : {0u, 3u, 7u, 33u, 0xFFFFFFFFu}) {
    MemoryStorage storage;
    DiskModel disk(DiskParameters{0.010, 0.002, 2048});
    const auto dir = BuildQuantizedIndex(&storage, &disk);
    auto file = storage.Open("idx.dir");
    ASSERT_TRUE(file.ok());
    // quant_bits sits after the MBR (2*4*dims bytes) and two uint32s.
    const uint64_t pos = EntryOffset(0, 4) + 2 * sizeof(float) * 4 +
                         2 * sizeof(uint32_t);
    ASSERT_TRUE((*file)->Write(pos, sizeof(bad_bits), &bad_bits).ok());
    auto opened = IqTree::Open(storage, "idx", disk);
    EXPECT_FALSE(opened.ok()) << "bits " << bad_bits;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
}

TEST(CorruptIndexTest, OversizedExtentOffsetRejected) {
  // Offsets that point past .dat, including one that would wrap uint64
  // in a naive offset+length check.
  for (const uint64_t bad_offset :
       {uint64_t{1} << 40, ~uint64_t{0} - 256, ~uint64_t{0}}) {
    MemoryStorage storage;
    DiskModel disk(DiskParameters{0.010, 0.002, 2048});
    const auto dir = BuildQuantizedIndex(&storage, &disk);
    const size_t victim = FirstQuantizedEntry(dir);
    auto file = storage.Open("idx.dir");
    ASSERT_TRUE(file.ok());
    const uint64_t pos = EntryOffset(victim, 4) + 2 * sizeof(float) * 4 +
                         4 * sizeof(uint32_t);
    ASSERT_TRUE((*file)->Write(pos, sizeof(bad_offset), &bad_offset).ok());
    auto opened = IqTree::Open(storage, "idx", disk);
    EXPECT_FALSE(opened.ok()) << "offset " << bad_offset;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
}

TEST(CorruptIndexTest, OversizedExtentLengthRejected) {
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  const auto dir = BuildQuantizedIndex(&storage, &disk);
  const size_t victim = FirstQuantizedEntry(dir);
  auto file = storage.Open("idx.dir");
  ASSERT_TRUE(file.ok());
  const uint64_t bad_length = ~uint64_t{0} - 64;
  const uint64_t pos = EntryOffset(victim, 4) + 2 * sizeof(float) * 4 +
                       4 * sizeof(uint32_t) + sizeof(uint64_t);
  ASSERT_TRUE((*file)->Write(pos, sizeof(bad_length), &bad_length).ok());
  auto opened = IqTree::Open(storage, "idx", disk);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(CorruptIndexTest, NonFiniteMbrRejected) {
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  BuildQuantizedIndex(&storage, &disk);
  auto file = storage.Open("idx.dir");
  ASSERT_TRUE(file.ok());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE((*file)->Write(EntryOffset(0, 4), sizeof(nan), &nan).ok());
  auto opened = IqTree::Open(storage, "idx", disk);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(ParseDirEntryTest, ShortBufferRejected) {
  const std::vector<uint8_t> bytes(DirEntryBytes(4) - 1, 0);
  auto parsed = ParseDirEntry(std::span(bytes.data(), bytes.size()), 4);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(DecoderRobustnessTest, DirectoryReaderOnGarbage) {
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    MemoryStorage storage;
    auto file = storage.Create("d");
    ASSERT_TRUE(file.ok());
    const auto bytes = RandomBytes(rng, rng.Index(2048));
    if (!bytes.empty()) {
      ASSERT_TRUE((*file)->Write(0, bytes.size(), bytes.data()).ok());
    }
    std::vector<DirEntry> entries;
    (void)ReadDirectory(**file, &entries);  // must not crash
  }
}

}  // namespace
}  // namespace iq
