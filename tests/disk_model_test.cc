#include "io/disk_model.h"

#include <gtest/gtest.h>

namespace iq {
namespace {

DiskParameters TestParams() {
  DiskParameters p;
  p.seek_time_s = 0.010;
  p.xfer_time_s = 0.002;
  p.block_size = 8192;
  return p;
}

TEST(DiskModelTest, FirstAccessPaysSeek) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  disk.ChargeRead(head, f, 0, 1);
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_EQ(disk.stats().blocks_read, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time_s, 0.012);
}

TEST(DiskModelTest, SequentialContinuationIsSeekFree) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  disk.ChargeRead(head, f, 0, 4);
  disk.ChargeRead(head, f, 4, 2);  // continues where the head is
  EXPECT_EQ(disk.stats().seeks, 1u);
  EXPECT_DOUBLE_EQ(disk.stats().io_time_s, 0.010 + 6 * 0.002);
}

TEST(DiskModelTest, GapOrBackwardCausesSeek) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  disk.ChargeRead(head, f, 0, 1);
  disk.ChargeRead(head, f, 5, 1);  // forward gap
  disk.ChargeRead(head, f, 0, 1);  // backward
  EXPECT_EQ(disk.stats().seeks, 3u);
}

TEST(DiskModelTest, SwitchingFilesCausesSeek) {
  DiskModel disk(TestParams());
  const uint32_t a = disk.RegisterFile();
  const uint32_t b = disk.RegisterFile();
  DiskHead head;
  disk.ChargeRead(head, a, 0, 1);
  disk.ChargeRead(head, b, 1, 1);
  disk.ChargeRead(head, a, 1, 1);  // would have been sequential without b
  EXPECT_EQ(disk.stats().seeks, 3u);
}

TEST(DiskModelTest, WritesTrackedSeparately) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  disk.ChargeWrite(head, f, 0, 3);
  EXPECT_EQ(disk.stats().blocks_written, 3u);
  EXPECT_EQ(disk.stats().blocks_read, 0u);
}

TEST(DiskModelTest, ChargeReadBytesRoundsToBlocks) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  // 1 byte at offset 8191 spans blocks 0 and 1.
  disk.ChargeReadBytes(head, f, 8191, 2);
  EXPECT_EQ(disk.stats().blocks_read, 2u);
  disk.ResetStats();
  disk.ChargeReadBytes(head, f, 0, 0);  // empty read is free
  EXPECT_EQ(disk.stats().blocks_read, 0u);
  EXPECT_EQ(disk.stats().seeks, 0u);
}

TEST(DiskModelTest, FreshHeadPaysSeek) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead first;
  disk.ChargeRead(first, f, 0, 2);
  // A second operation starts from its own head: block 2 would have
  // been sequential for `first`, but a fresh head pays the seek.
  DiskHead second;
  disk.ChargeRead(second, f, 2, 1);
  EXPECT_EQ(second.stats.seeks, 1u);
  EXPECT_DOUBLE_EQ(second.stats.io_time_s, 0.012);
  // `first` still sits at block 2, and the totals cover both heads.
  disk.ChargeRead(first, f, 2, 1);
  EXPECT_EQ(first.stats.seeks, 1u);
  EXPECT_EQ(first.stats.blocks_read, 3u);
  EXPECT_EQ(disk.stats().seeks, 2u);
  EXPECT_EQ(disk.stats().blocks_read, 4u);
}

TEST(DiskModelTest, StatsSubtraction) {
  DiskModel disk(TestParams());
  const uint32_t f = disk.RegisterFile();
  DiskHead head;
  disk.ChargeRead(head, f, 0, 2);
  const IoStats before = disk.stats();
  disk.ChargeRead(head, f, 2, 3);
  const IoStats delta = disk.stats() - before;
  EXPECT_EQ(delta.blocks_read, 3u);
  EXPECT_EQ(delta.seeks, 0u);
}

TEST(DiskParametersTest, SeekEquivalentBlocks) {
  DiskParameters p = TestParams();
  EXPECT_DOUBLE_EQ(p.SeekEquivalentBlocks(), 5.0);
}

}  // namespace
}  // namespace iq
