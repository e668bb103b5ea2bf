#include "scan/seq_scan.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace iq {
namespace {

class SeqScanTest : public ::testing::Test {
 protected:
  SeqScanTest() : disk_(DiskParameters{0.010, 0.002, 4096}) {}

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_F(SeqScanTest, NearestNeighborIsExact) {
  Dataset data = GenerateUniform(3000, 6, 1);
  const Dataset queries = data.TakeTail(10);
  auto scan = SeqScan::Build(data, storage_, "s", disk_, {});
  ASSERT_TRUE(scan.ok());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    double best = 1e300;
    PointId best_id = kInvalidPointId;
    for (size_t i = 0; i < data.size(); ++i) {
      const double dist = Distance(queries[qi], data[i], Metric::kL2);
      if (dist < best) {
        best = dist;
        best_id = static_cast<PointId>(i);
      }
    }
    auto nn = (*scan)->NearestNeighbor(queries[qi]);
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(nn->id, best_id);
    EXPECT_NEAR(nn->distance, best, 1e-9);
  }
}

TEST_F(SeqScanTest, KnnSortedAscending) {
  Dataset data = GenerateUniform(500, 4, 3);
  auto scan = SeqScan::Build(data, storage_, "s", disk_, {});
  ASSERT_TRUE(scan.ok());
  const std::vector<float> q(4, 0.5f);
  auto got = (*scan)->KNearestNeighbors(q, 20);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 20u);
  for (size_t i = 1; i < got->size(); ++i) {
    EXPECT_GE((*got)[i].distance, (*got)[i - 1].distance);
  }
}

TEST_F(SeqScanTest, CostIsOneSequentialPass) {
  Dataset data = GenerateUniform(10000, 16, 5);
  auto scan = SeqScan::Build(data, storage_, "s", disk_, {});
  ASSERT_TRUE(scan.ok());
  disk_.ResetStats();
  const std::vector<float> q(16, 0.5f);
  ASSERT_TRUE((*scan)->NearestNeighbor(q).ok());
  EXPECT_EQ(disk_.stats().seeks, 1u);
  const uint64_t expected_blocks =
      (24 + 10000ull * 16 * 4 + 4095) / 4096;
  EXPECT_EQ(disk_.stats().blocks_read, expected_blocks);
}

TEST_F(SeqScanTest, OpenRoundTripAndInsert) {
  Dataset data = GenerateUniform(100, 3, 7);
  {
    auto scan = SeqScan::Build(data, storage_, "s", disk_, {});
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE((*scan)->Insert(std::vector<float>{9, 9, 9}).ok());
    ASSERT_TRUE((*scan)->Flush().ok());
  }
  auto reopened = SeqScan::Open(storage_, "s", disk_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 101u);
  auto nn = (*reopened)->NearestNeighbor(std::vector<float>{9, 9, 9});
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 100u);
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(SeqScanTest, RangeSearchMatchesBruteForce) {
  Dataset data = GenerateUniform(1000, 2, 9);
  auto scan = SeqScan::Build(data, storage_, "s", disk_, {});
  ASSERT_TRUE(scan.ok());
  const std::vector<float> q{0.5f, 0.5f};
  auto got = (*scan)->RangeSearch(q, 0.1);
  ASSERT_TRUE(got.ok());
  size_t expected = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (Distance(q, data[i], Metric::kL2) <= 0.1) ++expected;
  }
  EXPECT_EQ(got->size(), expected);
}

TEST_F(SeqScanTest, EmptyAndEdgeCases) {
  auto scan = SeqScan::Build(Dataset(4), storage_, "s", disk_, {});
  ASSERT_TRUE(scan.ok());
  const std::vector<float> q(4, 0.0f);
  EXPECT_TRUE((*scan)->NearestNeighbor(q).status().IsNotFound());
  auto knn = (*scan)->KNearestNeighbors(q, 0);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
}

}  // namespace
}  // namespace iq
