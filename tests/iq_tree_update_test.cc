#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"

namespace iq {
namespace {

class IqTreeUpdateTest : public ::testing::Test {
 protected:
  IqTreeUpdateTest() : disk_(DiskParameters{0.010, 0.002, 2048}) {}

  /// Checks that the tree answers NN queries exactly over `reference`.
  void ExpectMatchesReference(const IqTree& tree, const Dataset& reference,
                              const Dataset& queries) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      double best = 1e300;
      for (size_t i = 0; i < reference.size(); ++i) {
        best = std::min(best,
                        Distance(queries[qi], reference[i], Metric::kL2));
      }
      auto nn = tree.NearestNeighbor(queries[qi]);
      ASSERT_TRUE(nn.ok()) << nn.status().ToString();
      EXPECT_NEAR(nn->distance, best, 1e-6) << "query " << qi;
    }
  }

  /// Structural invariants after updates.
  void ExpectInvariants(const IqTree& tree, uint64_t expected_points) {
    uint64_t total = 0;
    for (const DirEntry& entry : tree.directory()) {
      EXPECT_TRUE(IsQuantLevel(entry.quant_bits));
      EXPECT_GT(entry.count, 0u);
      total += entry.count;
    }
    EXPECT_EQ(total, expected_points);
    EXPECT_EQ(tree.size(), expected_points);
  }

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_F(IqTreeUpdateTest, InsertIntoEmptyTree) {
  auto tree = IqTree::Build(Dataset(4), storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> p{0.1f, 0.2f, 0.3f, 0.4f};
  ASSERT_TRUE((*tree)->Insert(0, p).ok());
  ExpectInvariants(**tree, 1);
  auto nn = (*tree)->NearestNeighbor(p);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 0u);
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(IqTreeUpdateTest, BulkThenInsertsKeepCorrectness) {
  Dataset data = GenerateCadLike(2200, 6, 5);
  const Dataset queries = data.TakeTail(15);
  Dataset initial(6);
  Dataset inserts(6);
  for (size_t i = 0; i < data.size(); ++i) {
    (i < 2000 ? initial : inserts).Append(data[i]);
  }
  auto tree = IqTree::Build(initial, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  Dataset reference = initial;
  for (size_t i = 0; i < inserts.size(); ++i) {
    const PointId id = static_cast<PointId>(2000 + i);
    ASSERT_TRUE((*tree)->Insert(id, inserts[i]).ok());
    reference.Append(inserts[i]);
  }
  ExpectInvariants(**tree, reference.size());
  ExpectMatchesReference(**tree, reference, queries);
}

TEST_F(IqTreeUpdateTest, InsertsCauseSplitsWithoutLosingPoints) {
  // Insert enough points into a small tree to force page overflows.
  Dataset small = GenerateUniform(50, 8, 6);
  auto tree = IqTree::Build(small, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const size_t before_pages = (*tree)->num_pages();
  const Dataset extra = GenerateUniform(3000, 8, 7);
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(
        (*tree)->Insert(static_cast<PointId>(50 + i), extra[i]).ok());
  }
  ExpectInvariants(**tree, 3050);
  EXPECT_GT((*tree)->num_pages(), before_pages);
}

TEST_F(IqTreeUpdateTest, RemoveFindsAndDeletes) {
  Dataset data = GenerateUniform(1000, 4, 8);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  // Remove every 10th point.
  Dataset reference(4);
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 10 == 0) {
      ASSERT_TRUE(
          (*tree)->Remove(static_cast<PointId>(i), data[i]).ok())
          << "removing " << i;
    } else {
      reference.Append(data[i]);
    }
  }
  ExpectInvariants(**tree, 900);
  // Removed points are gone: NN of a removed point is non-zero distance
  // (uniform data has no duplicates).
  auto nn = (*tree)->NearestNeighbor(data[0]);
  ASSERT_TRUE(nn.ok());
  EXPECT_GT(nn->distance, 0.0);
  const Dataset queries = GenerateUniform(10, 4, 9);
  ExpectMatchesReference(**tree, reference, queries);
}

TEST_F(IqTreeUpdateTest, RemoveMissingIsNotFound) {
  Dataset data = GenerateUniform(100, 4, 10);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> far{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_TRUE((*tree)->Remove(9999, far).IsNotFound());
}

TEST_F(IqTreeUpdateTest, RemoveAllEmptiesTree) {
  Dataset data = GenerateUniform(64, 3, 11);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE((*tree)->Remove(static_cast<PointId>(i), data[i]).ok());
  }
  EXPECT_EQ((*tree)->size(), 0u);
  EXPECT_EQ((*tree)->num_pages(), 0u);
}

TEST_F(IqTreeUpdateTest, FlushPersistsUpdates) {
  Dataset data = GenerateUniform(500, 5, 12);
  {
    auto tree = IqTree::Build(data, storage_, "t", disk_, {});
    ASSERT_TRUE(tree.ok());
    const std::vector<float> p(5, 0.25f);
    ASSERT_TRUE((*tree)->Insert(12345, p).ok());
    ASSERT_TRUE((*tree)->Flush().ok());
  }
  auto reopened = IqTree::Open(storage_, "t", disk_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 501u);
  const std::vector<float> p(5, 0.25f);
  auto nn = (*reopened)->NearestNeighbor(p);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 12345u);
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(IqTreeUpdateTest, InsertBatchMatchesLoopOfInserts) {
  Dataset data = GenerateCadLike(1500, 6, 20);
  const Dataset batch = GenerateCadLike(800, 6, 21);
  std::vector<PointId> batch_ids(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    batch_ids[i] = static_cast<PointId>(1500 + i);
  }

  auto loop_tree = IqTree::Build(data, storage_, "loop", disk_, {});
  ASSERT_TRUE(loop_tree.ok());
  const IoStats before_loop = disk_.stats();
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE((*loop_tree)->Insert(batch_ids[i], batch[i]).ok());
  }
  const uint64_t loop_writes =
      (disk_.stats() - before_loop).blocks_written;

  auto batch_tree = IqTree::Build(data, storage_, "batch", disk_, {});
  ASSERT_TRUE(batch_tree.ok());
  const IoStats before_batch = disk_.stats();
  ASSERT_TRUE((*batch_tree)->InsertBatch(batch_ids, batch).ok());
  const uint64_t batch_writes =
      (disk_.stats() - before_batch).blocks_written;

  EXPECT_EQ((*batch_tree)->size(), (*loop_tree)->size());
  EXPECT_TRUE((*batch_tree)->Validate().ok());
  EXPECT_LT(batch_writes, loop_writes / 2) << "batching should save writes";
  // Identical answers.
  const Dataset queries = GenerateCadLike(10, 6, 22);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto a = (*loop_tree)->NearestNeighbor(queries[qi]);
    auto b = (*batch_tree)->NearestNeighbor(queries[qi]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->distance, b->distance, 1e-6);
  }
}

TEST_F(IqTreeUpdateTest, InsertBatchIntoEmptyTree) {
  auto tree = IqTree::Build(Dataset(4), storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const Dataset batch = GenerateUniform(500, 4, 23);
  std::vector<PointId> ids(batch.size());
  std::iota(ids.begin(), ids.end(), 0);
  ASSERT_TRUE((*tree)->InsertBatch(ids, batch).ok());
  EXPECT_EQ((*tree)->size(), 500u);
  EXPECT_TRUE((*tree)->Validate().ok());
  auto nn = (*tree)->NearestNeighbor(batch[77]);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(IqTreeUpdateTest, InsertBatchOverflowingOnePageManyTimes) {
  // Regression: routing a batch much larger than a page's capacity to a
  // single target page must cascade-split, not fail.
  Dataset tiny = GenerateUniform(2, 8, 29);
  auto tree = IqTree::Build(tiny, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const Dataset batch = GenerateUniform(6000, 8, 30);
  std::vector<PointId> ids(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ids[i] = static_cast<PointId>(2 + i);
  }
  ASSERT_TRUE((*tree)->InsertBatch(ids, batch).ok());
  EXPECT_EQ((*tree)->size(), 6002u);
  EXPECT_TRUE((*tree)->Validate().ok());
}

TEST_F(IqTreeUpdateTest, InsertBatchValidatesInputs) {
  Dataset data = GenerateUniform(100, 4, 24);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const Dataset wrong_dims = GenerateUniform(5, 3, 25);
  std::vector<PointId> ids(5, 0);
  EXPECT_TRUE(
      (*tree)->InsertBatch(ids, wrong_dims).IsInvalidArgument());
  const Dataset ok_dims = GenerateUniform(5, 4, 26);
  std::vector<PointId> too_few(3, 0);
  EXPECT_TRUE((*tree)->InsertBatch(too_few, ok_dims).IsInvalidArgument());
}

TEST_F(IqTreeUpdateTest, QueryStatsAreFilled) {
  Dataset data = GenerateUniform(20000, 16, 27);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const Dataset queries = GenerateUniform(3, 16, 28);
  ASSERT_TRUE((*tree)->NearestNeighbor(queries[0]).ok());
  const auto& stats = (*tree)->last_query_stats();
  EXPECT_GT(stats.pages_decoded, 0u);
  EXPECT_GT(stats.blocks_transferred, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.cells_enqueued, 0u);
  EXPECT_GE(stats.blocks_transferred, stats.pages_decoded);
  // The optimized strategy uses far fewer batches than pages.
  EXPECT_LT(stats.batches, stats.pages_decoded);
}

TEST_F(IqTreeUpdateTest, DimensionMismatchRejected) {
  Dataset data = GenerateUniform(100, 4, 13);
  auto tree = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const std::vector<float> wrong(5, 0.5f);
  EXPECT_TRUE((*tree)->Insert(1, wrong).IsInvalidArgument());
  EXPECT_TRUE((*tree)->Remove(1, wrong).IsInvalidArgument());
}

/// File wrapper with an injectable write budget: once the shared budget
/// reaches zero, every Write/Resize fails with IOError (reads keep
/// working). -1 means unlimited.
class FaultyFile : public File {
 public:
  FaultyFile(std::shared_ptr<File> base, std::shared_ptr<std::atomic<int>> budget)
      : base_(std::move(base)), budget_(std::move(budget)) {}

  Status Read(uint64_t offset, uint64_t length, void* out) const override {
    return base_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, uint64_t length, const void* data) override {
    if (!Spend()) return Status::IOError("injected write failure");
    return base_->Write(offset, length, data);
  }
  Status Resize(uint64_t size) override {
    if (!Spend()) return Status::IOError("injected resize failure");
    return base_->Resize(size);
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  bool Spend() {
    if (budget_->load() < 0) return true;
    return budget_->fetch_sub(1) > 0;
  }

  std::shared_ptr<File> base_;
  std::shared_ptr<std::atomic<int>> budget_;
};

/// MemoryStorage whose files share one write budget (see FaultyFile).
class FaultyStorage : public Storage {
 public:
  Result<std::shared_ptr<File>> Open(const std::string& name) override {
    auto file = base_.Open(name);
    if (!file.ok()) return file.status();
    return std::shared_ptr<File>(new FaultyFile(*file, budget_));
  }
  Result<std::shared_ptr<File>> Create(const std::string& name) override {
    auto file = base_.Create(name);
    if (!file.ok()) return file.status();
    return std::shared_ptr<File>(new FaultyFile(*file, budget_));
  }
  bool Exists(const std::string& name) const override {
    return base_.Exists(name);
  }
  Status Delete(const std::string& name) override {
    return base_.Delete(name);
  }

  /// The next `n` writes succeed, everything after fails.
  void FailAfter(int n) { budget_->store(n); }
  void Heal() { budget_->store(-1); }

 private:
  MemoryStorage base_;
  std::shared_ptr<std::atomic<int>> budget_ =
      std::make_shared<std::atomic<int>>(-1);
};

/// Sum of the directory's per-page counts — what the index actually
/// holds; total_points (tree.size()) must always match it.
uint64_t DirPointSum(const IqTree& tree) {
  uint64_t total = 0;
  for (const DirEntry& entry : tree.directory()) total += entry.count;
  return total;
}

/// Regression: Insert used to count the point before the page write, so
/// a failed write left size() one ahead of the directory — and a later
/// Flush persisted the lie.
TEST_F(IqTreeUpdateTest, FailedInsertDoesNotCountThePoint) {
  FaultyStorage storage;
  Dataset data = GenerateUniform(600, 4, 31);
  auto tree = IqTree::Build(data, storage, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const uint64_t before = (*tree)->size();

  storage.FailAfter(0);
  const std::vector<float> p{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_TRUE((*tree)->Insert(600, p).IsIOError());
  storage.Heal();

  EXPECT_EQ((*tree)->size(), before);
  EXPECT_EQ(DirPointSum(**tree), before);
  // The tree must remain durable and reopenable with the same count.
  ASSERT_TRUE((*tree)->Flush().ok());
  auto reopened = IqTree::Open(storage, "t", disk_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), before);
  EXPECT_EQ(DirPointSum(**reopened), before);
}

/// Same shape on the empty-directory seeding path of Insert.
TEST_F(IqTreeUpdateTest, FailedFirstInsertLeavesEmptyTreeEmpty) {
  FaultyStorage storage;
  auto tree = IqTree::Build(Dataset(4), storage, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  storage.FailAfter(0);
  const std::vector<float> p{0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_TRUE((*tree)->Insert(0, p).IsIOError());
  storage.Heal();
  EXPECT_EQ((*tree)->size(), 0u);
  EXPECT_TRUE((*tree)->directory().empty());
  // After healing, the same insert must succeed cleanly.
  ASSERT_TRUE((*tree)->Insert(0, p).ok());
  EXPECT_EQ((*tree)->size(), 1u);
  EXPECT_EQ(DirPointSum(**tree), 1u);
}

/// Regression: InsertBatch used to count the whole batch up front; a
/// group failing mid-batch left size() ahead of the written groups.
/// Now earlier (successful) groups stay written AND counted, and the
/// failed group is neither.
TEST_F(IqTreeUpdateTest, FailedInsertBatchCountsOnlyWrittenGroups) {
  FaultyStorage storage;
  Dataset data = GenerateUniform(3000, 4, 32);
  Dataset initial(4);
  Dataset batch(4);
  for (size_t i = 0; i < data.size(); ++i) {
    (i < 2800 ? initial : batch).Append(data[i]);
  }
  auto tree = IqTree::Build(initial, storage, "t", disk_, {});
  ASSERT_TRUE(tree.ok());

  std::vector<PointId> ids(batch.size());
  std::iota(ids.begin(), ids.end(), 2800u);
  // A batch over many pages needs many writes; let a few through so
  // some groups land before the injected failure.
  storage.FailAfter(3);
  const Status status = (*tree)->InsertBatch(ids, batch);
  storage.Heal();
  EXPECT_TRUE(status.IsIOError());

  // Whatever landed, the metadata must match the directory exactly.
  EXPECT_EQ((*tree)->size(), DirPointSum(**tree));
  EXPECT_GE((*tree)->size(), initial.size());
  EXPECT_LE((*tree)->size(), initial.size() + batch.size());
  ASSERT_TRUE((*tree)->Flush().ok());
  auto reopened = IqTree::Open(storage, "t", disk_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), DirPointSum(**reopened));
}

/// An update refreshes the query mirror once, at its end, on
/// failure too: the groups of a failed batch that landed before the
/// fault must show in the mirror the searches read.
TEST_F(IqTreeUpdateTest, FailedInsertBatchStillRefreshesTheMirror) {
  FaultyStorage storage;
  Dataset initial = GenerateUniform(2800, 4, 33);
  auto tree = IqTree::Build(initial, storage, "t", disk_, {});
  ASSERT_TRUE(tree.ok());

  // Points pushed out of the unit cube on every side grow every page
  // they land on, and spread over many pages.
  Dataset batch(4);
  std::vector<float> p(4);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t d = 0; d < 4; ++d) {
      const float x = initial[i][d];
      p[d] = x < 0.5f ? x - 1.0f : x + 1.0f;
    }
    batch.Append(p);
  }
  std::vector<PointId> ids(batch.size());
  std::iota(ids.begin(), ids.end(), 2800u);
  storage.FailAfter(3);
  const Status status = (*tree)->InsertBatch(ids, batch);
  storage.Heal();
  ASSERT_TRUE(status.IsIOError());
  ASSERT_GT((*tree)->size(), initial.size()) << "no group landed";
  EXPECT_TRUE((*tree)->CheckDirGeometry().ok());
}

/// Regression: Remove used to decrement before the rewrite; a failed
/// rewrite left size() one behind the directory.
TEST_F(IqTreeUpdateTest, FailedRemoveKeepsThePointCounted) {
  FaultyStorage storage;
  Dataset data = GenerateUniform(600, 4, 33);
  auto tree = IqTree::Build(data, storage, "t", disk_, {});
  ASSERT_TRUE(tree.ok());
  const uint64_t before = (*tree)->size();

  storage.FailAfter(0);
  EXPECT_TRUE((*tree)->Remove(17, data[17]).IsIOError());
  storage.Heal();

  EXPECT_EQ((*tree)->size(), before);
  EXPECT_EQ(DirPointSum(**tree), before);
  // The point is still in the index and findable.
  auto nn = (*tree)->NearestNeighbor(data[17]);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->distance, 0.0);
  // After healing the remove must go through.
  ASSERT_TRUE((*tree)->Remove(17, data[17]).ok());
  EXPECT_EQ((*tree)->size(), before - 1);
  EXPECT_EQ(DirPointSum(**tree), before - 1);
}

/// The query-only directory mirror (dimension-major MBR arrays and the
/// qpage-block map) must follow every kind of directory mutation, and
/// kNN/range answers read through it must stay exact.
TEST_F(IqTreeUpdateTest, DirectoryMirrorFollowsEveryMutation) {
  constexpr size_t kDims = 4;
  constexpr size_t kK = 7;
  const Dataset data = GenerateCadLike(800, kDims, 41);
  const Dataset queries = GenerateUniform(6, kDims, 42);
  std::map<PointId, std::vector<float>> live;
  for (size_t i = 0; i < data.size(); ++i) {
    live[static_cast<PointId>(i)].assign(data[i].begin(), data[i].end());
  }
  auto built = IqTree::Build(data, storage_, "t", disk_, {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<IqTree> tree = std::move(built).value();

  auto check = [&](const IqTree& t, const std::string& step) {
    SCOPED_TRACE(step);
    const Status mirror = t.CheckDirGeometry();
    EXPECT_TRUE(mirror.ok()) << mirror.ToString();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<std::pair<double, PointId>> all;
      for (const auto& [id, p] : live) {
        all.emplace_back(Distance(queries[qi], p, Metric::kL2), id);
      }
      std::sort(all.begin(), all.end());
      auto knn = t.KNearestNeighbors(queries[qi], kK);
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      ASSERT_EQ(knn->size(), std::min(kK, all.size()));
      for (size_t r = 0; r < knn->size(); ++r) {
        EXPECT_EQ((*knn)[r].distance, all[r].first) << "query " << qi;
      }
      const double radius = all[std::min(kK, all.size()) - 1].first;
      std::set<PointId> want;
      for (const auto& [dist, id] : all) {
        if (dist <= radius) want.insert(id);
      }
      auto range = t.RangeSearch(queries[qi], radius);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      std::set<PointId> got;
      for (const Neighbor& n : *range) got.insert(n.id);
      EXPECT_EQ(got, want) << "query " << qi;
    }
  };
  check(*tree, "build");

  const std::vector<float> extra{0.31f, 0.62f, 0.47f, 0.12f};
  ASSERT_TRUE(tree->Insert(5000, extra).ok());
  live[5000] = extra;
  check(*tree, "insert");

  const Dataset batch = GenerateUniform(60, kDims, 43);
  std::vector<PointId> batch_ids(batch.size());
  std::iota(batch_ids.begin(), batch_ids.end(), PointId{6000});
  ASSERT_TRUE(tree->InsertBatch(batch_ids, batch).ok());
  for (size_t r = 0; r < batch.size(); ++r) {
    live[batch_ids[r]].assign(batch[r].begin(), batch[r].end());
  }
  check(*tree, "insert batch");

  // Empty one whole page. Pick the smallest page whose MBR holds exactly
  // its own points, so those are the points it stores.
  const size_t pages_before = tree->num_pages();
  std::vector<PointId> victims;
  std::vector<size_t> by_count(pages_before);
  std::iota(by_count.begin(), by_count.end(), size_t{0});
  std::sort(by_count.begin(), by_count.end(), [&](size_t a, size_t b) {
    return tree->directory()[a].count < tree->directory()[b].count;
  });
  for (size_t e : by_count) {
    victims.clear();
    for (const auto& [id, p] : live) {
      if (tree->directory()[e].mbr.Contains(p)) victims.push_back(id);
    }
    if (victims.size() == tree->directory()[e].count) break;
    victims.clear();
  }
  ASSERT_FALSE(victims.empty()) << "no page with an exclusive MBR";
  for (PointId id : victims) {
    ASSERT_TRUE(tree->Remove(id, live[id]).ok()) << "removing " << id;
    live.erase(id);
    check(*tree, "remove " + std::to_string(id));
  }
  EXPECT_EQ(tree->num_pages(), pages_before - 1);

  ASSERT_TRUE(tree->Reoptimize().ok());
  check(*tree, "reoptimize");

  ASSERT_TRUE(tree->Flush().ok());
  auto reopened = IqTree::Open(storage_, "t", disk_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  check(**reopened, "open");
}

}  // namespace
}  // namespace iq
