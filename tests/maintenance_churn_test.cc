// Churn bit-identity: a tree that lives through interleaved inserts,
// removes, queries, and a Reoptimize must answer exactly —
// bit-identical distances — like a tree freshly built over the same
// final point set. The simulated DiskModel makes every run
// deterministic, so any drift here is a real correctness bug in the
// §6 update paths.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"

namespace iq {
namespace {

class MaintenanceChurnTest : public ::testing::Test {
 protected:
  MaintenanceChurnTest() : disk_(DiskParameters{0.010, 0.002, 2048}) {}

  /// (distance, id) answer list of a kNN query, the comparison unit.
  std::vector<std::pair<double, PointId>> Answer(const IqTree& tree,
                                                 PointView q, size_t k) {
    auto result = tree.KNearestNeighbors(q, k);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::pair<double, PointId>> out;
    if (result.ok()) {
      for (const Neighbor& n : *result) out.emplace_back(n.distance, n.id);
      // Ties can legitimately order differently across layouts; compare
      // as sorted sets.
      std::sort(out.begin(), out.end());
    }
    return out;
  }

  DiskModel disk_;
};

TEST_F(MaintenanceChurnTest, ChurnedTreeMatchesFreshBuildBitForBit) {
  const size_t kDims = 6;
  const Dataset all = GenerateCadLike(6000, kDims, 17);
  const Dataset extra = GenerateUniform(400, kDims, 18);
  const Dataset queries = GenerateCadLike(25, kDims, 19);

  // The churned tree: build over the first 5000 points, then interleave
  // inserts of the rest, removes of every 7th initial point, queries,
  // and one Reoptimize.
  MemoryStorage churn_storage;
  DiskModel churn_disk(disk_.params());
  Dataset initial(kDims);
  for (size_t i = 0; i < 5000; ++i) initial.Append(all[i]);
  auto tree = IqTree::Build(initial, churn_storage, "t", churn_disk, {});
  ASSERT_TRUE(tree.ok());

  size_t next_insert = 5000;
  size_t next_remove = 0;
  for (size_t phase = 0; phase < 5; ++phase) {
    for (size_t i = 0; i < 200 && next_insert < all.size(); ++i) {
      ASSERT_TRUE(
          (*tree)->Insert(static_cast<PointId>(next_insert), all[next_insert])
              .ok());
      ++next_insert;
    }
    for (size_t i = 0; i < 40; ++i, next_remove += 7) {
      ASSERT_TRUE((*tree)->Remove(static_cast<PointId>(next_remove),
                                  all[next_remove])
                      .ok());
    }
    for (size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE((*tree)->KNearestNeighbors(all[100 + i], 3).ok());
    }
    if (phase == 2) {
      ASSERT_TRUE((*tree)->Reoptimize().ok());
    }
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(
        (*tree)->Insert(static_cast<PointId>(10000 + i), extra[i]).ok());
  }
  ASSERT_TRUE((*tree)->Flush().ok());

  // The reference: a fresh build over exactly the surviving points.
  Dataset survivors(kDims);
  std::vector<PointId> survivor_ids;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i < next_remove && i % 7 == 0) continue;  // removed
    survivors.Append(all[i]);
    survivor_ids.push_back(static_cast<PointId>(i));
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    survivors.Append(extra[i]);
    survivor_ids.push_back(static_cast<PointId>(10000 + i));
  }
  ASSERT_EQ((*tree)->size(), survivors.size());

  MemoryStorage fresh_storage;
  DiskModel fresh_disk(disk_.params());
  auto fresh = IqTree::Build(survivors, fresh_storage, "f", fresh_disk, {});
  ASSERT_TRUE(fresh.ok());
  // The fresh build numbers points 0..n-1 by position; translate its
  // answers back through survivor_ids before comparing.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto got = Answer(**tree, queries[qi], 5);
    auto want = Answer(**fresh, queries[qi], 5);
    for (auto& [dist, id] : want) id = survivor_ids[id];
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got.size(), want.size()) << "query " << qi;
    for (size_t i = 0; i < got.size(); ++i) {
      // Bit-identical distances: same floats, not just nearby ones.
      EXPECT_EQ(got[i].first, want[i].first) << "query " << qi;
      EXPECT_EQ(got[i].second, want[i].second) << "query " << qi;
    }
  }

  // And the churned tree survives a reopen with identical answers.
  auto reopened = IqTree::Open(churn_storage, "t", churn_disk);
  ASSERT_TRUE(reopened.ok());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(Answer(**reopened, queries[qi], 5),
              Answer(**tree, queries[qi], 5))
        << "query " << qi;
  }
}

}  // namespace
}  // namespace iq
