// ParallelQueryRunner correctness: batch results must be bit-identical
// to the sequential path at every thread count. Under
// IQ_SANITIZE=thread this doubles as the "concurrent batch queries"
// stress of the hardening matrix — many threads querying one IqTree,
// all charging one DiskModel.

#include "concurrency/parallel_query_runner.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"

namespace iq {
namespace {

class ParallelQueryRunnerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBlockSize = 2048;

  void BuildTree(size_t n, size_t dims, unsigned seed) {
    data_ = GenerateCadLike(n + 32, dims, seed);
    queries_ = data_.TakeTail(32);
    disk_ = std::make_unique<DiskModel>(
        DiskParameters{0.010, 0.002, kBlockSize});
    auto tree = IqTree::Build(data_, storage_, "t", *disk_, {});
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  /// The ground truth the batch must reproduce exactly: the same
  /// sequential calls a single-threaded caller would make.
  std::vector<std::vector<Neighbor>> SequentialKnn(
      size_t k, const IqSearchOptions& options) {
    std::vector<std::vector<Neighbor>> out;
    out.reserve(queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      auto r = tree_->KNearestNeighbors(queries_[i], k, options);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r).value());
    }
    return out;
  }

  std::vector<std::vector<Neighbor>> SequentialRange(double radius) {
    std::vector<std::vector<Neighbor>> out;
    out.reserve(queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      auto r = tree_->RangeSearch(queries_[i], radius);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(std::move(r).value());
    }
    return out;
  }

  MemoryStorage storage_;
  Dataset data_;
  Dataset queries_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<IqTree> tree_;
};

TEST_F(ParallelQueryRunnerTest, KnnIdenticalToSequentialAtAllThreadCounts) {
  BuildTree(3000, 8, 42);
  const IqSearchOptions options;
  const auto expected = SequentialKnn(5, options);
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ParallelQueryRunner runner(*tree_, threads);
    auto got = runner.KnnBatch(queries_, 5, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // operator== on Neighbor is exact: ids and double distances must
    // match bit-for-bit, not just approximately.
    EXPECT_EQ(*got, expected) << threads << " threads";
  }
}

TEST_F(ParallelQueryRunnerTest, StandardAccessPathAlsoIdentical) {
  BuildTree(2000, 4, 7);
  IqSearchOptions options;
  options.optimized_access = false;
  const auto expected = SequentialKnn(3, options);
  ParallelQueryRunner runner(*tree_, 4);
  auto got = runner.KnnBatch(queries_, 3, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, expected);
}

TEST_F(ParallelQueryRunnerTest, RangeIdenticalToSequential) {
  BuildTree(2500, 6, 11);
  for (double radius : {0.05, 0.3}) {
    const auto expected = SequentialRange(radius);
    for (size_t threads : {1u, 4u}) {
      ParallelQueryRunner runner(*tree_, threads);
      auto got = runner.RangeBatch(queries_, radius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, expected) << "radius " << radius << ", " << threads
                                << " threads";
    }
  }
}

TEST_F(ParallelQueryRunnerTest, RunnerIsReusableAcrossBatches) {
  BuildTree(1500, 4, 5);
  ParallelQueryRunner runner(*tree_, 4);
  const auto expected_knn = SequentialKnn(2, {});
  const auto expected_range = SequentialRange(0.2);
  auto knn = runner.KnnBatch(queries_, 2, {});
  ASSERT_TRUE(knn.ok());
  auto range = runner.RangeBatch(queries_, 0.2);
  ASSERT_TRUE(range.ok());
  auto knn2 = runner.KnnBatch(queries_, 2, {});
  ASSERT_TRUE(knn2.ok());
  EXPECT_EQ(*knn, expected_knn);
  EXPECT_EQ(*range, expected_range);
  EXPECT_EQ(*knn2, expected_knn);
}

TEST_F(ParallelQueryRunnerTest, EmptyBatchReturnsEmpty) {
  BuildTree(500, 3, 9);
  ParallelQueryRunner runner(*tree_, 2);
  const Dataset empty(3);
  auto got = runner.KnnBatch(empty, 5, {});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_F(ParallelQueryRunnerTest, PerQueryErrorSurfacesAsBatchError) {
  BuildTree(500, 3, 13);
  ParallelQueryRunner runner(*tree_, 2);
  // Wrong dimensionality: every query fails with InvalidArgument; the
  // batch must report it rather than return partial garbage.
  const Dataset wrong_dims = GenerateUniform(4, 5, 1);
  auto got = runner.KnnBatch(wrong_dims, 1, {});
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsInvalidArgument())
      << got.status().ToString();
}

TEST_F(ParallelQueryRunnerTest, LastQueryStatsIsOneQuerysCounters) {
  BuildTree(2000, 6, 17);
  ParallelQueryRunner runner(*tree_, 4);
  auto got = runner.KnnBatch(queries_, 3, {});
  ASSERT_TRUE(got.ok());
  // Whichever query published last: its counters are internally
  // consistent (a decoded page implies at least one batch; never a
  // blend of two queries' halves).
  const IqTree::QueryStats stats = tree_->last_query_stats();
  EXPECT_GT(stats.pages_decoded, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GE(stats.blocks_transferred, stats.batches);
}

}  // namespace
}  // namespace iq
