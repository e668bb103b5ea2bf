// Edge cases across all structures: k larger than the database,
// duplicate-heavy data, single-point indexes, and queries far outside
// the data space. Everything must stay exact and error-free.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "vafile/va_file.h"
#include "xtree/x_tree.h"

namespace iq {
namespace {

class EdgeCasesTest : public ::testing::Test {
 protected:
  EdgeCasesTest() : disk_(DiskParameters{0.010, 0.002, 2048}) {}

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_F(EdgeCasesTest, KLargerThanDatabaseReturnsEverything) {
  const Dataset data = GenerateUniform(25, 4, 1);
  const std::vector<float> q(4, 0.5f);

  auto iq = IqTree::Build(data, storage_, "iq", disk_, {});
  ASSERT_TRUE(iq.ok());
  auto iq_got = (*iq)->KNearestNeighbors(q, 100);
  ASSERT_TRUE(iq_got.ok());
  EXPECT_EQ(iq_got->size(), 25u);

  auto x = XTree::Build(data, storage_, "x", disk_, {});
  ASSERT_TRUE(x.ok());
  auto x_got = (*x)->KNearestNeighbors(q, 100);
  ASSERT_TRUE(x_got.ok());
  EXPECT_EQ(x_got->size(), 25u);

  auto va = VaFile::Build(data, storage_, "va", disk_, {});
  ASSERT_TRUE(va.ok());
  auto va_got = (*va)->KNearestNeighbors(q, 100);
  ASSERT_TRUE(va_got.ok());
  EXPECT_EQ(va_got->size(), 25u);
}

TEST_F(EdgeCasesTest, MassDuplicatesStayExact) {
  // 500 copies of one point + 500 of another: quantization cells
  // collapse to points, splits see zero-extent MBRs.
  Dataset data(3);
  for (int i = 0; i < 500; ++i) data.Append(std::vector<float>{0.2f, 0.2f, 0.2f});
  for (int i = 0; i < 500; ++i) data.Append(std::vector<float>{0.8f, 0.8f, 0.8f});
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->Validate().ok());
  const std::vector<float> q{0.21f, 0.2f, 0.2f};
  auto knn = (*tree)->KNearestNeighbors(q, 10);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 10u);
  for (const Neighbor& r : *knn) {
    EXPECT_NEAR(r.distance, 0.01, 1e-5);
  }
  auto in_ball = (*tree)->RangeSearch(q, 0.05);
  ASSERT_TRUE(in_ball.ok());
  EXPECT_EQ(in_ball->size(), 500u);
}

TEST_F(EdgeCasesTest, SinglePointIndex) {
  Dataset data(6);
  data.Append(std::vector<float>(6, 0.3f));
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> q(6, 0.9f);
  auto nn = (*tree)->NearestNeighbor(q);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 0u);
  // Single exact point: stored at the 32-bit level, no third level.
  EXPECT_EQ((*tree)->directory()[0].quant_bits, kExactBits);
}

TEST_F(EdgeCasesTest, QueryFarOutsideDataSpace) {
  Dataset data = GenerateUniform(1000, 4, 2);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> q{50.0f, -50.0f, 50.0f, -50.0f};
  double best = 1e300;
  for (size_t i = 0; i < data.size(); ++i) {
    best = std::min(best, Distance(q, data[i], Metric::kL2));
  }
  auto nn = (*tree)->NearestNeighbor(q);
  ASSERT_TRUE(nn.ok());
  EXPECT_NEAR(nn->distance, best, 1e-4);
  // Empty results for a window far away.
  const Mbr window = Mbr::FromBounds(std::vector<float>(4, 90.0f),
                                     std::vector<float>(4, 99.0f));
  auto hits = (*tree)->WindowQuery(window);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(EdgeCasesTest, ZeroRadiusRangeFindsExactMatchesOnly) {
  Dataset data = GenerateUniform(500, 3, 3);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  auto hits = (*tree)->RangeSearch(data[7], 0.0);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, 7u);
  EXPECT_EQ((*hits)[0].distance, 0.0);
}

TEST_F(EdgeCasesTest, OneDimensionalData) {
  // d = 1 exercises every formula at its degenerate end (binomials,
  // ball volumes).
  Dataset data = GenerateUniform(2000, 1, 4);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const std::vector<float> q{0.42f};
  double best = 1e300;
  for (size_t i = 0; i < data.size(); ++i) {
    best = std::min(best, Distance(q, data[i], Metric::kL2));
  }
  auto iq_nn = (*tree)->NearestNeighbor(q);
  ASSERT_TRUE(iq_nn.ok());
  EXPECT_NEAR(iq_nn->distance, best, 1e-6);
}

TEST_F(EdgeCasesTest, LargeBlockSmallData) {
  // A block big enough that everything fits one exact page.
  DiskModel big_blocks(DiskParameters{0.010, 0.002, 1 << 20});
  Dataset data = GenerateUniform(100, 8, 5);
  auto tree = IqTree::Build(data, storage_, "t", big_blocks, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_pages(), 1u);
  auto nn = (*tree)->NearestNeighbor(data[50]);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(EdgeCasesTest, TinyBlockRejectedCleanly) {
  // A block too small for even one exact 16-d point must fail loudly.
  DiskModel tiny(DiskParameters{0.010, 0.002, 64});
  Dataset data = GenerateUniform(10, 16, 6);
  EXPECT_TRUE(IqTree::Build(data, storage_, "t", tiny, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace iq
