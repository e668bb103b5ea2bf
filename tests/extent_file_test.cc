#include "io/extent_file.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace iq {
namespace {

class ExtentFileTest : public ::testing::Test {
 protected:
  ExtentFileTest() : disk_(DiskParameters{0.010, 0.002, 4096}) {}

  std::unique_ptr<ExtentFile> Make() {
    auto ef = std::make_unique<ExtentFile>();
    EXPECT_TRUE(ef->Open(storage_, "ef", disk_, /*create=*/true).ok());
    return ef;
  }

  MemoryStorage storage_;
  DiskModel disk_;
  DiskHead head_;
};

TEST_F(ExtentFileTest, AppendReadRoundTrip) {
  auto ef = Make();
  const std::string a = "first extent";
  const std::string b = "second, longer extent with more bytes";
  auto ea = ef->Append(head_, a.data(), a.size());
  auto eb = ef->Append(head_, b.data(), b.size());
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea->offset, 0u);
  EXPECT_EQ(eb->offset, a.size());
  std::string buf(b.size(), '\0');
  ASSERT_TRUE(ef->Read(head_, *eb, buf.data()).ok());
  EXPECT_EQ(buf, b);
}

TEST_F(ExtentFileTest, ReadChargesSpannedBlocks) {
  auto ef = Make();
  std::vector<uint8_t> payload(10000, 7);  // spans 3 blocks of 4096
  auto extent = ef->Append(head_, payload.data(), payload.size());
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(ef->BlocksSpanned(*extent), 3u);
  disk_.ResetStats();
  DiskHead head;
  std::vector<uint8_t> buf(payload.size());
  ASSERT_TRUE(ef->Read(head, *extent, buf.data()).ok());
  EXPECT_EQ(disk_.stats().blocks_read, 3u);
  EXPECT_EQ(disk_.stats().seeks, 1u);
}

TEST_F(ExtentFileTest, ReadPastEndFails) {
  auto ef = Make();
  Extent bogus{100, 10};
  std::vector<uint8_t> buf(10);
  EXPECT_TRUE(ef->Read(head_, bogus, buf.data()).IsOutOfRange());
}

TEST_F(ExtentFileTest, OverwriteInPlace) {
  auto ef = Make();
  const std::string a = "aaaaaaaa";
  auto extent = ef->Append(head_, a.data(), a.size());
  ASSERT_TRUE(extent.ok());
  const std::string b = "bbbbbbbb";
  ASSERT_TRUE(ef->Overwrite(head_, *extent, b.data()).ok());
  std::string buf(b.size(), '\0');
  ASSERT_TRUE(ef->Read(head_, *extent, buf.data()).ok());
  EXPECT_EQ(buf, b);
}

TEST_F(ExtentFileTest, EmptyExtent) {
  auto ef = Make();
  auto extent = ef->Append(head_, nullptr, 0);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->length, 0u);
  EXPECT_EQ(ef->BlocksSpanned(*extent), 0u);
  EXPECT_TRUE(ef->Read(head_, *extent, nullptr).ok());
}

}  // namespace
}  // namespace iq
