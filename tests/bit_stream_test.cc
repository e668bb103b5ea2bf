#include "quant/bit_stream.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace iq {
namespace {

TEST(BitStreamTest, SingleBits) {
  std::vector<uint8_t> buf(2, 0);
  BitWriter writer(buf.data());
  const int pattern[] = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  for (int b : pattern) writer.Put(static_cast<uint32_t>(b), 1);
  writer.Flush();
  BitReader reader(buf.data());
  for (int b : pattern) {
    EXPECT_EQ(reader.Get(1), static_cast<uint32_t>(b));
  }
}

TEST(BitStreamTest, CrossByteFields) {
  std::vector<uint8_t> buf(8, 0);
  BitWriter writer(buf.data());
  writer.Put(0x5, 3);
  writer.Put(0x1F3, 9);  // crosses a byte boundary
  writer.Put(0xABCD, 16);
  writer.Flush();
  BitReader reader(buf.data());
  EXPECT_EQ(reader.Get(3), 0x5u);
  EXPECT_EQ(reader.Get(9), 0x1F3u);
  EXPECT_EQ(reader.Get(16), 0xABCDu);
}

TEST(BitStreamTest, FullWidth32) {
  std::vector<uint8_t> buf(12, 0);
  BitWriter writer(buf.data(), 4);  // non-zero start offset
  writer.Put(0xDEADBEEF, 32);
  writer.Put(0x0, 1);
  writer.Put(0xFFFFFFFF, 32);
  writer.Flush();
  BitReader reader(buf.data(), 4);
  EXPECT_EQ(reader.Get(32), 0xDEADBEEFu);
  EXPECT_EQ(reader.Get(1), 0u);
  EXPECT_EQ(reader.Get(32), 0xFFFFFFFFu);
}

TEST(BitStreamTest, ValueMaskedToWidth) {
  std::vector<uint8_t> buf(4, 0);
  BitWriter writer(buf.data());
  writer.Put(0xFF, 4);  // only the low 4 bits survive
  writer.Put(0x0, 4);
  writer.Flush();
  BitReader reader(buf.data());
  EXPECT_EQ(reader.Get(4), 0xFu);
  EXPECT_EQ(reader.Get(4), 0u);
}

TEST(BitStreamTest, SeekRepositions) {
  std::vector<uint8_t> buf(4, 0);
  BitWriter writer(buf.data());
  writer.Put(0xA, 4);
  writer.Put(0xB, 4);
  writer.Put(0xC, 4);
  writer.Flush();
  BitReader reader(buf.data());
  reader.Seek(8);
  EXPECT_EQ(reader.Get(4), 0xCu);
  reader.Seek(4);
  EXPECT_EQ(reader.Get(4), 0xBu);
}

/// Property: random sequences of mixed widths round-trip.
TEST(BitStreamTest, RandomRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t count = 1 + rng.Index(200);
    std::vector<unsigned> widths(count);
    std::vector<uint32_t> values(count);
    size_t total_bits = 0;
    for (size_t i = 0; i < count; ++i) {
      widths[i] = 1 + static_cast<unsigned>(rng.Index(32));
      const uint64_t mask =
          widths[i] == 32 ? 0xFFFFFFFFull : ((1ull << widths[i]) - 1);
      values[i] = static_cast<uint32_t>(rng.Index(1ull << 32) & mask);
      total_bits += widths[i];
    }
    std::vector<uint8_t> buf((total_bits + 7) / 8, 0);
    BitWriter writer(buf.data());
    for (size_t i = 0; i < count; ++i) writer.Put(values[i], widths[i]);
    EXPECT_EQ(writer.bit_position(), total_bits);
    writer.Flush();
    BitReader reader(buf.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(reader.Get(widths[i]), values[i]) << "field " << i;
    }
  }
}

/// Contract: width-0 operations are no-ops — they return/store 0 and
/// never touch the buffer or advance the cursor (bit_stream.h).
TEST(BitStreamTest, WidthZeroReadsReturnZeroWithoutAdvancing) {
  std::vector<uint8_t> buf(2, 0);
  BitWriter writer(buf.data());
  writer.Put(0x2A, 7);
  writer.Flush();
  BitReader reader(buf.data());
  EXPECT_EQ(reader.Get(0), 0u);
  EXPECT_EQ(reader.bit_position(), 0u);
  EXPECT_EQ(reader.Get(3), 0x2u);  // low bits of 0x2A, unaffected
  EXPECT_EQ(reader.Get(0), 0u);    // interleaved mid-stream
  EXPECT_EQ(reader.bit_position(), 3u);
  EXPECT_EQ(reader.Get(4), 0x5u);  // remaining bits of 0x2A
}

TEST(BitStreamTest, WidthZeroWritesNothing) {
  std::vector<uint8_t> buf(1, 0);
  BitWriter writer(buf.data());
  writer.Put(0xFFFFFFFF, 0);  // value bits must be ignored entirely
  EXPECT_EQ(writer.bit_position(), 0u);
  writer.Put(0x3, 2);
  writer.Put(0xFFFFFFFF, 0);
  EXPECT_EQ(writer.bit_position(), 2u);
  writer.Flush();
  EXPECT_EQ(buf[0], 0x3u);
}

/// Contract: sub-byte tails are staged in the writer and only reach
/// the buffer on Flush() (bit_stream.h).
TEST(BitStreamTest, PartialByteStagedUntilFlush) {
  std::vector<uint8_t> buf(2, 0);
  BitWriter writer(buf.data());
  writer.Put(0xFF, 8);
  writer.Put(0x7, 3);  // stays staged: byte 1 untouched until Flush
  EXPECT_EQ(buf[0], 0xFFu);
  EXPECT_EQ(buf[1], 0u);
  EXPECT_EQ(writer.bit_position(), 11u);
  writer.Flush();
  EXPECT_EQ(buf[1], 0x7u);
}

/// Contract: a second writer may append at the first one's end
/// position — the constructor preloads the shared partial byte, and
/// Flush() OR-writes it back (bit_stream.h).
TEST(BitStreamTest, AppendAfterFlushAtSubByteOffset) {
  std::vector<uint8_t> buf(2, 0);
  BitWriter first(buf.data());
  first.Put(0x15, 5);
  first.Flush();
  BitWriter second(buf.data(), first.bit_position());
  second.Put(0x5B, 7);
  second.Flush();
  EXPECT_EQ(second.bit_position(), 12u);
  BitReader reader(buf.data());
  EXPECT_EQ(reader.Get(5), 0x15u);
  EXPECT_EQ(reader.Get(7), 0x5Bu);
}

}  // namespace
}  // namespace iq
