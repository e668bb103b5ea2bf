#include "io/block_file.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace iq {
namespace {

class BlockFileTest : public ::testing::Test {
 protected:
  BlockFileTest() : disk_(DiskParameters{0.010, 0.002, 4096}) {}

  std::unique_ptr<BlockFile> Make() {
    auto bf = std::make_unique<BlockFile>();
    EXPECT_TRUE(bf->Open(storage_, "bf", disk_, /*create=*/true).ok());
    return bf;
  }

  std::vector<uint8_t> Block(uint8_t fill) {
    return std::vector<uint8_t>(4096, fill);
  }

  MemoryStorage storage_;
  DiskModel disk_;
  /// The head of the test's writes; reads that check accounting take a
  /// fresh head of their own.
  DiskHead head_;
};

TEST_F(BlockFileTest, AppendAndReadBack) {
  auto bf = Make();
  auto b0 = bf->AppendBlock(head_, Block(0xAA).data());
  auto b1 = bf->AppendBlock(head_, Block(0xBB).data());
  ASSERT_TRUE(b0.ok());
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(*b0, 0u);
  EXPECT_EQ(*b1, 1u);
  EXPECT_EQ(bf->NumBlocks(), 2u);
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(bf->ReadBlock(head_, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xBB);
  EXPECT_EQ(buf[4095], 0xBB);
}

TEST_F(BlockFileTest, ReadRangeChargesOneAccess) {
  auto bf = Make();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        bf->AppendBlock(head_, Block(static_cast<uint8_t>(i)).data()).ok());
  }
  disk_.ResetStats();
  DiskHead head;
  std::vector<uint8_t> buf(4 * 4096);
  ASSERT_TRUE(bf->ReadRange(head, 2, 4, buf.data()).ok());
  EXPECT_EQ(head.stats.seeks, 1u);
  EXPECT_EQ(head.stats.blocks_read, 4u);
  EXPECT_EQ(disk_.stats().seeks, 1u);
  EXPECT_EQ(disk_.stats().blocks_read, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(buf[i * 4096], static_cast<uint8_t>(2 + i));
  }
}

TEST_F(BlockFileTest, ReadPastEndFails) {
  auto bf = Make();
  ASSERT_TRUE(bf->AppendBlock(head_, Block(1).data()).ok());
  std::vector<uint8_t> buf(2 * 4096);
  Status s = bf->ReadRange(head_, 0, 2, buf.data());
  EXPECT_TRUE(s.IsOutOfRange());
}

TEST_F(BlockFileTest, OverwriteBlock) {
  auto bf = Make();
  ASSERT_TRUE(bf->AppendBlock(head_, Block(1).data()).ok());
  ASSERT_TRUE(bf->WriteBlock(head_, 0, Block(9).data()).ok());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(bf->ReadBlock(head_, 0, buf.data()).ok());
  EXPECT_EQ(buf[0], 9);
  // Writing beyond NumBlocks() (leaving a hole) is rejected.
  EXPECT_TRUE(bf->WriteBlock(head_, 5, Block(2).data()).IsOutOfRange());
}

TEST_F(BlockFileTest, EmptyReadIsFree) {
  auto bf = Make();
  disk_.ResetStats();
  ASSERT_TRUE(bf->ReadRange(head_, 0, 0, nullptr).ok());
  EXPECT_EQ(disk_.stats().seeks, 0u);
}

// Many threads ReadRange over one BlockFile and one DiskModel, each
// with its own head: every block comes back intact, each head's
// accounting is exactly that thread's own reads (a seek wherever its
// previous read did not end at the next read's first block), and the
// model's totals lose no charge. Under IQ_SANITIZE=thread this is the
// race hunt for the read path.
TEST_F(BlockFileTest, ConcurrentReadRangeKeepsPayloadAndAccounting) {
  auto bf = Make();
  constexpr uint64_t kBlocks = 64;
  auto stamp = [](uint64_t block, size_t i) {
    return static_cast<uint8_t>(block * 31 + i);
  };
  for (uint64_t b = 0; b < kBlocks; ++b) {
    std::vector<uint8_t> payload(4096);
    for (size_t i = 0; i < payload.size(); ++i) payload[i] = stamp(b, i);
    ASSERT_TRUE(bf->AppendBlock(head_, payload.data()).ok());
  }
  disk_.ResetStats();

  constexpr size_t kThreads = 4;
  constexpr int kReadsPerThread = 500;
  std::atomic<int> bad{0};
  std::vector<DiskHead> heads(kThreads);
  std::vector<IoStats> expected(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> out(4 * 4096);
      uint64_t state = 0x243f6a8885a308d3ULL * (t + 1);
      uint64_t next = kBlocks;  // no previous read: the first one seeks
      for (int r = 0; r < kReadsPerThread; ++r) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t first = (state >> 33) % (kBlocks - 4);
        const uint64_t count = 1 + (state >> 20) % 4;
        expected[t].seeks += first != next ? 1 : 0;
        expected[t].blocks_read += count;
        next = first + count;
        if (!bf->ReadRange(heads[t], first, count, out.data()).ok()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (uint64_t b = 0; b < count; ++b) {
          for (size_t i = 0; i < 4096; ++i) {
            if (out[b * 4096 + i] != stamp(first + b, i)) {
              bad.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0);
  IoStats sum;
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(heads[t].stats.seeks, expected[t].seeks) << "thread " << t;
    EXPECT_EQ(heads[t].stats.blocks_read, expected[t].blocks_read);
    sum += heads[t].stats;
  }
  const IoStats stats = disk_.stats();
  EXPECT_GT(stats.io_time_s, 0.0);
  EXPECT_EQ(stats.seeks, sum.seeks);
  EXPECT_EQ(stats.blocks_read, sum.blocks_read);
  EXPECT_EQ(stats.blocks_written, 0u);
}

}  // namespace
}  // namespace iq
