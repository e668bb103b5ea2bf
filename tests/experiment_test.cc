#include "harness/experiment.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace iq {
namespace {

TEST(ExperimentTest, AllMethodsProduceTimes) {
  Dataset data = GenerateUniform(3010, 8, 1);
  const Dataset queries = data.TakeTail(10);
  Experiment experiment(data, queries, DiskParameters{0.010, 0.002, 4096});
  for (auto result : {experiment.RunIqTree(), experiment.RunXTree(),
                      experiment.RunVaFile(4), experiment.RunSeqScan()}) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->avg_query_time_s, 0.0);
    EXPECT_GT(result->blocks_per_query, 0.0);
    EXPECT_GT(result->structure_size, 0u);
  }
}

TEST(ExperimentTest, ScanCostMatchesClosedForm) {
  Dataset data = GenerateUniform(5005, 16, 2);
  const Dataset queries = data.TakeTail(5);
  const DiskParameters disk{0.010, 0.002, 8192};
  Experiment experiment(data, queries, disk);
  auto result = experiment.RunSeqScan();
  ASSERT_TRUE(result.ok());
  const uint64_t blocks = (24 + 5000ull * 16 * 4 + 8191) / 8192;
  EXPECT_NEAR(result->avg_query_time_s,
              disk.seek_time_s + blocks * disk.xfer_time_s, 1e-9);
}

TEST(ExperimentTest, BestBitsPicksAWinner) {
  Dataset data = GenerateUniform(2005, 8, 3);
  const Dataset queries = data.TakeTail(5);
  Experiment experiment(data, queries, DiskParameters{0.010, 0.002, 4096});
  unsigned best_bits = 0;
  auto best = experiment.RunVaFileBestBits(2, 6, &best_bits);
  ASSERT_TRUE(best.ok());
  EXPECT_GE(best_bits, 2u);
  EXPECT_LE(best_bits, 6u);
  // The winner is no slower than two arbitrary settings.
  for (unsigned bits : {2u, 6u}) {
    auto other = experiment.RunVaFile(bits);
    ASSERT_TRUE(other.ok());
    EXPECT_LE(best->avg_query_time_s, other->avg_query_time_s + 1e-12);
  }
}

TEST(ExperimentTest, HighDimUniformOrdering) {
  // The paper's Fig. 8 shape at d = 16: the compressing methods
  // (IQ-tree, VA-file) are comparable and far ahead of the scan, while
  // the X-tree degenerates below the scan. (The paper's 3x IQ-over-VA
  // factor on *uniform* data does not reproduce at this reduced scale —
  // see EXPERIMENTS.md; on the clustered workloads the IQ-tree's lead
  // does, see ClusteredOrdering below.)
  Dataset data = GenerateUniform(20020, 16, 4);
  const Dataset queries = data.TakeTail(20);
  Experiment experiment(data, queries, DiskParameters{0.010, 0.002, 8192});
  auto iq = experiment.RunIqTree();
  auto x = experiment.RunXTree();
  auto va = experiment.RunVaFileBestBits(4, 6);
  auto scan = experiment.RunSeqScan();
  ASSERT_TRUE(iq.ok() && x.ok() && va.ok() && scan.ok());
  EXPECT_LT(iq->avg_query_time_s, 2.5 * va->avg_query_time_s);
  EXPECT_LT(iq->avg_query_time_s, 0.7 * scan->avg_query_time_s);
  EXPECT_LT(va->avg_query_time_s, scan->avg_query_time_s);
  EXPECT_GT(x->avg_query_time_s, scan->avg_query_time_s);
}

TEST(ExperimentTest, ClusteredOrdering) {
  // Fig. 10/12 shape: on clustered data the IQ-tree beats both the
  // VA-file and the X-tree, and the X-tree beats the scan.
  Dataset data = GenerateCadLike(20020, 16, 5);
  const Dataset queries = data.TakeTail(20);
  Experiment experiment(data, queries, DiskParameters{0.010, 0.002, 8192});
  auto iq = experiment.RunIqTree();
  auto x = experiment.RunXTree();
  auto va = experiment.RunVaFileBestBits(4, 8);
  auto scan = experiment.RunSeqScan();
  ASSERT_TRUE(iq.ok() && x.ok() && va.ok() && scan.ok());
  EXPECT_LT(iq->avg_query_time_s, va->avg_query_time_s);
  EXPECT_LT(iq->avg_query_time_s, x->avg_query_time_s);
  EXPECT_LT(x->avg_query_time_s, scan->avg_query_time_s);
}

TEST(ExperimentTest, OptimizerTracksBestFixedLevelOnUniformData) {
  // abl_quantization's UNIFORM-16d row at 30k points: the §3.5
  // optimizer's layout must cost no more than 1.1x the best layout that
  // stores every page at one fixed level g.
  Dataset data = GenerateUniform(30020, 16, 42);
  const Dataset queries = data.TakeTail(20);
  Experiment experiment(data, queries, DiskParameters{});
  double best_fixed = std::numeric_limits<double>::infinity();
  for (unsigned g : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto fixed = experiment.RunIqTree(true, true, g);
    ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
    best_fixed = std::min(best_fixed, fixed->avg_query_time_s);
  }
  auto optimized = experiment.RunIqTree();
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_LE(optimized->avg_query_time_s, 1.1 * best_fixed)
      << "optimizer " << optimized->avg_query_time_s << " s, best fixed "
      << best_fixed << " s";
}

TEST(ExperimentTest, KnnSupported) {
  Dataset data = GenerateUniform(2010, 6, 5);
  const Dataset queries = data.TakeTail(10);
  Experiment experiment(data, queries, DiskParameters{0.010, 0.002, 4096});
  experiment.set_k(5);
  auto iq = experiment.RunIqTree();
  ASSERT_TRUE(iq.ok());
  EXPECT_GT(iq->avg_query_time_s, 0.0);
}

}  // namespace
}  // namespace iq
