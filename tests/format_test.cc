#include "core/format.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "io/storage.h"
#include "quant/grid_quantizer.h"

namespace iq {
namespace {

TEST(QuantLadderTest, NextLevelDoubles) {
  EXPECT_EQ(NextQuantLevel(1), 2u);
  EXPECT_EQ(NextQuantLevel(2), 4u);
  EXPECT_EQ(NextQuantLevel(16), 32u);
  EXPECT_EQ(NextQuantLevel(32), 32u);
}

TEST(QuantLadderTest, IsQuantLevel) {
  for (unsigned g : kQuantLevels) EXPECT_TRUE(IsQuantLevel(g));
  EXPECT_FALSE(IsQuantLevel(0));
  EXPECT_FALSE(IsQuantLevel(3));
  EXPECT_FALSE(IsQuantLevel(64));
}

TEST(CapacityTest, HalvesAsLevelDoubles) {
  const size_t dims = 16;
  const uint32_t block = 8192;
  uint32_t prev = QuantPageCapacity(dims, 1, block);
  EXPECT_EQ(prev, (8192u - 8u) * 8u / 16u);
  for (unsigned g : {2u, 4u, 8u, 16u}) {
    const uint32_t cap = QuantPageCapacity(dims, g, block);
    EXPECT_EQ(cap, prev / 2);
    prev = cap;
  }
  // Exact level counts the inline point id.
  EXPECT_EQ(QuantPageCapacity(dims, 32, block),
            (8192u - 8u) * 8u / (32u + 32u * 16u));
}

TEST(CapacityTest, BestQuantLevelPicksFinestFit) {
  const size_t dims = 16;
  const uint32_t block = 8192;
  // One point always fits exactly.
  EXPECT_EQ(BestQuantLevel(dims, 1, block), 32u);
  // More points than the 1-bit capacity fit nothing.
  const uint32_t c1 = QuantPageCapacity(dims, 1, block);
  EXPECT_EQ(BestQuantLevel(dims, c1 + 1, block), 0u);
  EXPECT_EQ(BestQuantLevel(dims, c1, block), 1u);
  const uint32_t c4 = QuantPageCapacity(dims, 4, block);
  EXPECT_EQ(BestQuantLevel(dims, c4, block), 4u);
}

TEST(SplitTreeCountTest, PaperSolutionCount) {
  // §3.5: "there are 458,330 potential solutions how to quantize a
  // single initial partition" — this pins the ladder to doubling g:
  // S(32) = 1, S(g) = 1 + S(2g)^2.
  uint64_t s = 1;
  for (int level = 0; level < 5; ++level) s = 1 + s * s;
  EXPECT_EQ(s, 458330u);
}

TEST(DirectoryRoundTripTest, PreservesEntries) {
  MemoryStorage storage;
  auto file = storage.Create("dir");
  ASSERT_TRUE(file.ok());
  IndexMeta meta;
  meta.dims = 4;
  meta.total_points = 1234;
  meta.block_size = 8192;
  meta.metric = 1;
  meta.fractal_dimension = 2.75;
  meta.quantized = 1;
  std::vector<DirEntry> entries;
  Rng rng(3);
  for (int i = 0; i < 17; ++i) {
    DirEntry entry;
    std::vector<float> lb(4), ub(4);
    for (size_t j = 0; j < 4; ++j) {
      lb[j] = static_cast<float>(rng.Uniform());
      ub[j] = lb[j] + static_cast<float>(rng.Uniform());
    }
    entry.mbr = Mbr::FromBounds(lb, ub);
    entry.qpage_block = static_cast<uint32_t>(i);
    entry.count = static_cast<uint32_t>(10 + i);
    entry.quant_bits = kQuantLevels[i % 6];
    entry.exact = Extent{static_cast<uint64_t>(i) * 100, 97};
    entries.push_back(std::move(entry));
  }
  ASSERT_TRUE(WriteDirectory(**file, meta, entries).ok());
  std::vector<DirEntry> loaded;
  auto loaded_meta = ReadDirectory(**file, &loaded);
  ASSERT_TRUE(loaded_meta.ok()) << loaded_meta.status().ToString();
  EXPECT_EQ(loaded_meta->dims, meta.dims);
  EXPECT_EQ(loaded_meta->total_points, meta.total_points);
  EXPECT_DOUBLE_EQ(loaded_meta->fractal_dimension, meta.fractal_dimension);
  ASSERT_EQ(loaded.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(loaded[i].mbr, entries[i].mbr);
    EXPECT_EQ(loaded[i].qpage_block, entries[i].qpage_block);
    EXPECT_EQ(loaded[i].count, entries[i].count);
    EXPECT_EQ(loaded[i].quant_bits, entries[i].quant_bits);
    EXPECT_EQ(loaded[i].exact, entries[i].exact);
  }
}

TEST(DirectoryRoundTripTest, CorruptionDetected) {
  MemoryStorage storage;
  auto file = storage.Create("dir");
  ASSERT_TRUE(file.ok());
  const char junk[100] = "garbage";
  ASSERT_TRUE((*file)->Write(0, sizeof(junk), junk).ok());
  std::vector<DirEntry> entries;
  EXPECT_TRUE(ReadDirectory(**file, &entries).status().IsCorruption());
}

TEST(QuantPageCodecTest, CellsRoundTrip) {
  const uint32_t block = 4096;
  Rng rng(9);
  for (size_t dims : {8u, 3u, 16u}) {
    QuantPageCodec codec(dims, block);
    for (unsigned g : {1u, 2u, 4u, 8u, 16u}) {
      const uint32_t cap = QuantPageCapacity(dims, g, block);
      // A page filled to capacity also decodes the payload's last bytes.
      for (uint32_t count : {std::min<uint32_t>(cap, 50), cap}) {
        std::vector<uint32_t> cells(count * dims);
        for (uint32_t& c : cells) {
          c = static_cast<uint32_t>(rng.Index(uint64_t{1} << g));
        }
        std::vector<uint8_t> page(block);
        ASSERT_TRUE(codec.EncodeCells(g, cells, page.data()).ok());
        auto header = codec.DecodeHeader(page.data());
        ASSERT_TRUE(header.ok());
        EXPECT_EQ(header->bits, g);
        EXPECT_EQ(header->count, count);
        std::vector<uint32_t> decoded;
        ASSERT_TRUE(codec.DecodeCells(page.data(), &decoded).ok());
        EXPECT_EQ(decoded, cells) << "dims=" << dims << " g=" << g
                                  << " count=" << count;
      }
    }
  }
}

TEST(QuantPageCodecTest, ExactRoundTrip) {
  const size_t dims = 5;
  const uint32_t block = 4096;
  QuantPageCodec codec(dims, block);
  std::vector<PointId> ids{3, 1, 4, 159};
  std::vector<float> coords(ids.size() * dims);
  for (size_t i = 0; i < coords.size(); ++i) {
    coords[i] = static_cast<float>(i) * 0.125f;
  }
  std::vector<uint8_t> page(block);
  ASSERT_TRUE(codec.EncodeExact(ids, coords, page.data()).ok());
  std::vector<PointId> got_ids;
  std::vector<float> got_coords;
  ASSERT_TRUE(codec.DecodeExact(page.data(), &got_ids, &got_coords).ok());
  EXPECT_EQ(got_ids, ids);
  EXPECT_EQ(got_coords, coords);
}

TEST(QuantPageCodecTest, RejectsOverCapacityAndBadPages) {
  const size_t dims = 16;
  const uint32_t block = 4096;
  QuantPageCodec codec(dims, block);
  const uint32_t cap = QuantPageCapacity(dims, 16, block);
  std::vector<uint32_t> too_many((cap + 1) * dims, 0);
  std::vector<uint8_t> page(block);
  EXPECT_TRUE(codec.EncodeCells(16, too_many, page.data())
                  .IsInvalidArgument());
  // Garbage page: header decode fails.
  std::vector<uint8_t> garbage(block, 0x5A);
  EXPECT_TRUE(codec.DecodeHeader(garbage.data()).status().IsCorruption());
  // Decoding the wrong page kind fails.
  std::vector<uint32_t> cells(dims, 1);
  ASSERT_TRUE(codec.EncodeCells(2, cells, page.data()).ok());
  std::vector<PointId> ids;
  std::vector<float> coords;
  EXPECT_FALSE(codec.DecodeExact(page.data(), &ids, &coords).ok());
}

TEST(ExactPageCodecTest, RoundTripAndSizeCheck) {
  const size_t dims = 3;
  ExactPageCodec codec(dims);
  std::vector<PointId> ids{10, 20, 30};
  std::vector<float> coords{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<uint8_t> buf;
  codec.Encode(ids, coords, &buf);
  EXPECT_EQ(buf.size(), codec.PageBytes(3));
  std::vector<PointId> got_ids;
  std::vector<float> got_coords;
  ASSERT_TRUE(codec.Decode(buf.data(), buf.size(), &got_ids,
                           &got_coords).ok());
  EXPECT_EQ(got_ids, ids);
  EXPECT_EQ(got_coords, coords);
  // Truncated payload detected.
  EXPECT_TRUE(codec.Decode(buf.data(), buf.size() - 1, &got_ids, &got_coords)
                  .IsCorruption());
}

}  // namespace
}  // namespace iq
