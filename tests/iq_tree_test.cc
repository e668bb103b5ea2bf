#include "core/iq_tree.h"

#include <numeric>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace iq {
namespace {

class IqTreeTest : public ::testing::Test {
 protected:
  IqTreeTest() : disk_(DiskParameters{0.010, 0.002, 4096}) {}

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_F(IqTreeTest, BuildProducesConsistentStructure) {
  const Dataset data = GenerateUniform(5000, 8, 1);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->dims(), 8u);
  EXPECT_EQ((*tree)->size(), 5000u);
  EXPECT_GT((*tree)->num_pages(), 0u);
  // Directory covers all points.
  uint64_t total = 0;
  for (const DirEntry& entry : (*tree)->directory()) {
    EXPECT_TRUE(IsQuantLevel(entry.quant_bits));
    EXPECT_GT(entry.count, 0u);
    total += entry.count;
  }
  EXPECT_EQ(total, 5000u);
  const auto& stats = (*tree)->build_stats();
  EXPECT_EQ(stats.num_pages, (*tree)->num_pages());
  EXPECT_GT(stats.expected_query_cost_s, 0.0);
  EXPECT_GT(stats.fractal_dimension, 0.0);
}

TEST_F(IqTreeTest, OpenRoundTrip) {
  const Dataset data = GenerateCadLike(2000, 6, 2);
  {
    auto tree = IqTree::Build(data, storage_, "t", disk_, {});
    ASSERT_TRUE(tree.ok());
  }
  auto reopened = IqTree::Open(storage_, "t", disk_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 2000u);
  EXPECT_EQ((*reopened)->dims(), 6u);
  // Query works after reopen.
  auto nn = (*reopened)->NearestNeighbor(data[17]);
  ASSERT_TRUE(nn.ok()) << nn.status().ToString();
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(IqTreeTest, OpenMissingFails) {
  EXPECT_TRUE(IqTree::Open(storage_, "nope", disk_).status().IsNotFound());
}

TEST_F(IqTreeTest, BlockSizeMismatchRejected) {
  const Dataset data = GenerateUniform(100, 4, 3);
  ASSERT_TRUE(IqTree::Build(data, storage_, "t", disk_, {}).ok());
  DiskModel other(DiskParameters{0.01, 0.002, 8192});
  EXPECT_TRUE(
      IqTree::Open(storage_, "t", other).status().IsInvalidArgument());
}

TEST_F(IqTreeTest, NoQuantizationVariantUsesExactPagesOnly) {
  const Dataset data = GenerateUniform(3000, 8, 4);
  IqTree::Options options;
  options.quantize = false;
  auto tree = IqTree::Build(data, storage_, "t", disk_, options);
  ASSERT_TRUE(tree.ok());
  for (const DirEntry& entry : (*tree)->directory()) {
    EXPECT_EQ(entry.quant_bits, kExactBits);
    EXPECT_EQ(entry.exact.length, 0u);  // no third level
  }
}

TEST_F(IqTreeTest, FixedLevelVariant) {
  const Dataset data = GenerateUniform(3000, 8, 4);
  IqTree::Options options;
  options.fixed_quant_bits = 4;
  auto tree = IqTree::Build(data, storage_, "t", disk_, options);
  ASSERT_TRUE(tree.ok());
  for (const DirEntry& entry : (*tree)->directory()) {
    EXPECT_EQ(entry.quant_bits, 4u);
  }
  IqTree::Options bad;
  bad.fixed_quant_bits = 3;
  EXPECT_TRUE(IqTree::Build(data, storage_, "u", disk_, bad)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(IqTreeTest, OptimizerMixesLevelsOnSkewedData) {
  // Strongly clustered data: dense pages deserve finer quantization than
  // sparse ones — the core point of *independent* quantization.
  ClusterParams params;
  params.clusters = 3;
  params.sigma = 0.01;
  params.background_fraction = 0.3;
  const Dataset data = GenerateClustered(20000, 8, 5, params);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const auto& per_level = (*tree)->build_stats().pages_per_level;
  size_t levels_used = 0;
  for (size_t count : per_level) levels_used += count > 0 ? 1 : 0;
  EXPECT_GE(levels_used, 2u) << "expected a mix of quantization levels";
}

TEST_F(IqTreeTest, EmptyDatasetBuilds) {
  const Dataset data(4);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->num_pages(), 0u);
  const std::vector<float> q(4, 0.5f);
  EXPECT_TRUE((*tree)->NearestNeighbor(q).status().IsNotFound());
}

TEST_F(IqTreeTest, BuildAssignsGivenIds) {
  const Dataset data = GenerateUniform(300, 4, 9);
  std::vector<PointId> ids(data.size());
  for (size_t r = 0; r < ids.size(); ++r) {
    ids[r] = static_cast<PointId>(1000 + 3 * r);
  }
  auto tree = IqTree::Build(data, storage_, "t", disk_, {}, ids);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE((*tree)->Validate().ok());
  for (size_t r = 0; r < data.size(); r += 37) {
    auto nn = (*tree)->NearestNeighbor(data[r]);
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(nn->id, ids[r]) << "row " << r;
  }
}

TEST_F(IqTreeTest, BuildRejectsIdsOfWrongLength) {
  const Dataset data = GenerateUniform(50, 4, 10);
  for (size_t n : {data.size() - 1, data.size() + 1}) {
    const std::vector<PointId> ids(n, 0);
    EXPECT_TRUE(IqTree::Build(data, storage_, "t", disk_, {}, ids)
                    .status()
                    .IsInvalidArgument())
        << n << " ids";
  }
}

TEST_F(IqTreeTest, QueryDimensionalityChecked) {
  const Dataset data = GenerateUniform(100, 4, 6);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> wrong(3, 0.5f);
  EXPECT_TRUE(
      (*tree)->NearestNeighbor(wrong).status().IsInvalidArgument());
}

TEST_F(IqTreeTest, QueriesChargeSimulatedIo) {
  const Dataset data = GenerateUniform(10000, 8, 7);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  disk_.ResetStats();
  const std::vector<float> q(8, 0.3f);
  ASSERT_TRUE((*tree)->NearestNeighbor(q).ok());
  EXPECT_GT(disk_.stats().io_time_s, 0.0);
  EXPECT_GT(disk_.stats().blocks_read, 0u);
}

TEST_F(IqTreeTest, SelfQueriesFindThemselves) {
  const Dataset data = GenerateColorLike(2000, 8, 8);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < data.size(); i += 97) {
    auto nn = (*tree)->NearestNeighbor(data[i]);
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(nn->distance, 0.0) << "query " << i;
  }
}

}  // namespace
}  // namespace iq
