// Slow-query log: threshold policies (absolute and adaptive-quantile),
// ring eviction, the truncated flag for capped tracers (the 64k
// span-cap interaction), the JSON dump, and end-to-end capture through
// IqTree queries and a concurrent batch on a ThreadPool. A record's
// observed split is its query's own IqQueryStats::observed, complete
// whether or not the query was traced and however small its tracer.

#include "obs/slow_log.h"

#include <bit>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"
#include "obs/trace.h"

namespace iq {
namespace {

using obs::CostBreakdown;
using obs::SlowLogOptions;
using obs::SlowQueryLog;
using obs::SlowQueryRecord;

/// A finished kNN query whose observed total is `io_s`, all of it
/// level-2 I/O.
SlowQueryRecord MakeQuery(double io_s) {
  SlowQueryRecord query;
  query.kind = "knn";
  query.observed.t2 = io_s;
  return query;
}

TEST(SlowQueryLogTest, AbsoluteThresholdFiltersCheapQueries) {
  SlowLogOptions options;
  options.absolute_threshold_s = 1.0;
  SlowQueryLog log(options);
  log.Offer(MakeQuery(0.5));
  log.Offer(MakeQuery(2.0));
  if (!obs::kEnabled) {
    EXPECT_EQ(log.offered(), 0u);
    EXPECT_TRUE(log.Snapshot().empty());
    return;
  }
  EXPECT_EQ(log.offered(), 2u);
  EXPECT_EQ(log.retained(), 1u);
  EXPECT_DOUBLE_EQ(log.current_threshold_s(), 1.0);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].query_index, 1u);
  EXPECT_EQ(records[0].kind, "knn");
  EXPECT_DOUBLE_EQ(records[0].observed_io_s, 2.0);
  EXPECT_FALSE(records[0].truncated);
  EXPECT_TRUE(records[0].spans.empty());  // offered without a tracer
}

TEST(SlowQueryLogTest, RingEvictsOldestBeyondCapacity) {
  if (!obs::kEnabled) return;
  SlowLogOptions options;
  options.capacity = 2;
  options.absolute_threshold_s = 0.001;
  SlowQueryLog log(options);
  for (int i = 0; i < 5; ++i) {
    log.Offer(MakeQuery(1.0));
  }
  EXPECT_EQ(log.retained(), 5u);  // counts every retention, not the ring
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].query_index, 3u);  // oldest-first, 0..2 evicted
  EXPECT_EQ(records[1].query_index, 4u);
}

TEST(SlowQueryLogTest, AdaptiveQuantileRetainsOutliersOnly) {
  if (!obs::kEnabled) return;
  SlowLogOptions options;
  options.quantile = 0.75;
  options.min_samples = 8;
  SlowQueryLog log(options);
  // Warm-up: below min_samples everything clears the (zero) threshold.
  for (int i = 0; i < 8; ++i) {
    log.Offer(MakeQuery(0.01));
  }
  EXPECT_EQ(log.retained(), 8u);
  // Warmed: the p75 of the io_s window sits at the 0.01 bucket bound,
  // so an equal-cost query no longer clears it...
  EXPECT_GT(log.current_threshold_s(), 0.0);
  log.Offer(MakeQuery(0.005));
  EXPECT_EQ(log.retained(), 8u);
  // ...but a 100x outlier does.
  log.Offer(MakeQuery(1.0));
  EXPECT_EQ(log.retained(), 9u);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  EXPECT_DOUBLE_EQ(records.back().observed_io_s, 1.0);
}

TEST(SlowQueryLogTest, DroppedSpansMarkRecordTruncatedIntoJson) {
  if (!obs::kEnabled) return;
  SlowLogOptions options;
  options.absolute_threshold_s = 0.001;
  SlowQueryLog log(options);
  obs::QueryTracer tracer(/*max_spans=*/1);
  tracer.EndSpan(tracer.BeginSpan("knn"));
  tracer.BeginSpan("batch");  // over the cap: dropped
  SlowQueryRecord query = MakeQuery(1.0);
  query.predicted = CostBreakdown{1.0, 2.0, 3.0};
  log.Offer(std::move(query), &tracer);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  ASSERT_EQ(records[0].spans.size(), 1u);
  EXPECT_EQ(records[0].spans[0].name, "knn");
  EXPECT_DOUBLE_EQ(records[0].observed_io_s, 1.0);
  const std::string json = obs::SlowLogToJson(records);
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"predicted\":{\"t1\":1"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":["), std::string::npos);
}

class SlowLogQueryTest : public ::testing::Test {
 protected:
  void BuildTree(size_t n, size_t dims, unsigned seed) {
    data_ = GenerateCadLike(n + 16, dims, seed);
    queries_ = data_.TakeTail(16);
    disk_ = std::make_unique<DiskModel>(DiskParameters{0.010, 0.002, 2048});
    auto tree = IqTree::Build(data_, storage_, "t", *disk_, {});
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  Dataset data_{1};
  Dataset queries_{1};
  MemoryStorage storage_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<IqTree> tree_;
};

/// The cost model evaluated afresh over the tree's current directory,
/// the way PredictCost documents it.
CostBreakdown FreshPrediction(const IqTree& tree) {
  const CostModel model = tree.MakeCostModel();
  CostBreakdown out;
  out.t1 = model.DirectoryScanCost(tree.num_pages());
  out.t2 = model.SecondLevelCost(tree.num_pages());
  for (const DirEntry& entry : tree.directory()) {
    out.t3 += model.PageRefinementCost(entry.mbr, entry.count,
                                       entry.quant_bits);
  }
  return out;
}

void ExpectSameBits(const CostBreakdown& got, const CostBreakdown& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.t1), std::bit_cast<uint64_t>(want.t1));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.t2), std::bit_cast<uint64_t>(want.t2));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.t3), std::bit_cast<uint64_t>(want.t3));
}

// The prediction is stored with the directory, not recomputed per
// query: after every kind of update a slow-logged record must still
// carry exactly what a fresh evaluation of the cost model gives.
TEST_F(SlowLogQueryTest, PredictedCostStaysFreshAcrossUpdates) {
  BuildTree(2000, 8, 3);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;  // retain everything
  SlowQueryLog log(options);
  IqSearchOptions search;
  search.slow_log = &log;
  const auto expect_fresh = [&](const char* after) -> CostBreakdown {
    SCOPED_TRACE(after);
    const CostBreakdown fresh = FreshPrediction(*tree_);
    ExpectSameBits(tree_->PredictCost(), fresh);
    log.Clear();
    EXPECT_TRUE(tree_->KNearestNeighbors(queries_[0], 3, search).ok());
    if (!obs::kEnabled) return fresh;
    const std::vector<SlowQueryRecord> records = log.Snapshot();
    EXPECT_EQ(records.size(), 1u);
    if (!records.empty()) ExpectSameBits(records[0].predicted, fresh);
    return fresh;
  };
  const CostBreakdown built = expect_fresh("Build");
  // Enough inserts to split pages, so the prediction must move.
  const Dataset extra = GenerateCadLike(600, 8, 4);
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(tree_->Insert(static_cast<PointId>(100000 + i), extra[i]).ok());
  }
  const CostBreakdown inserted = expect_fresh("Insert");
  EXPECT_NE(inserted.total(), built.total());
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Remove(static_cast<PointId>(100000 + i), extra[i]).ok());
  }
  const CostBreakdown removed = expect_fresh("Remove");
  EXPECT_NE(removed.total(), inserted.total());
  ASSERT_TRUE(tree_->Reoptimize().ok());
  const CostBreakdown reoptimized = expect_fresh("Reoptimize");
  EXPECT_NE(reoptimized.total(), removed.total());
}

TEST_F(SlowLogQueryTest, CapturesQueriesWithoutCallerTracer) {
  BuildTree(2000, 8, 3);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;  // retain everything
  SlowQueryLog log(options);
  IqTree::QueryStats stats;
  IqSearchOptions search;
  search.slow_log = &log;  // no tracer: the record carries no trace
  search.stats = &stats;
  auto hits = tree_->KNearestNeighbors(queries_[0], 3, search);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  if (!obs::kEnabled) {
    EXPECT_TRUE(log.Snapshot().empty());
    return;
  }
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "knn");
  EXPECT_GT(records[0].observed_io_s, 0.0);
  EXPECT_EQ(records[0].observed.t1, stats.observed.t1);
  EXPECT_EQ(records[0].observed.t2, stats.observed.t2);
  EXPECT_EQ(records[0].observed.t3, stats.observed.t3);
  EXPECT_GT(records[0].predicted.total(), 0.0);  // tree's PredictCost
  EXPECT_TRUE(records[0].spans.empty());
  EXPECT_FALSE(records[0].truncated);
  // Slow-logging must not change results.
  auto plain = tree_->KNearestNeighbors(queries_[0], 3);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->size(), hits->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].id, (*hits)[i].id);
  }
}

TEST_F(SlowLogQueryTest, SpanCapMarksCapturedQueryTruncated) {
  BuildTree(2000, 8, 5);
  obs::QueryTracer tiny_tracer(/*max_spans=*/4);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;
  SlowQueryLog log(options);
  IqSearchOptions search;
  search.tracer = &tiny_tracer;
  search.slow_log = &log;
  auto hits = tree_->KNearestNeighbors(queries_[0], 3, search);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  if (!obs::kEnabled) return;
  ASSERT_GT(tiny_tracer.dropped(), 0u) << "query must overflow 4 spans";
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  EXPECT_EQ(records[0].spans.size(), 4u);
}

/// A truncated trace no longer under-reports the record: with a tracer
/// capped at one span (the root, which carries no io_s), the record's
/// observed split is still the query's own, all three levels of it.
TEST_F(SlowLogQueryTest, OneSpanTracerKeepsQuerysObservedSplit) {
  BuildTree(2000, 8, 7);
  obs::QueryTracer one_span(/*max_spans=*/1);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;
  SlowQueryLog log(options);
  IqTree::QueryStats stats;
  IqSearchOptions search;
  search.tracer = &one_span;
  search.slow_log = &log;
  search.stats = &stats;
  auto hits = tree_->KNearestNeighbors(queries_[0], 3, search);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  if (!obs::kEnabled) return;
  ASSERT_GT(one_span.dropped(), 0u);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  EXPECT_EQ(records[0].observed.t1, stats.observed.t1);
  EXPECT_EQ(records[0].observed.t2, stats.observed.t2);
  EXPECT_EQ(records[0].observed.t3, stats.observed.t3);
  EXPECT_GT(stats.observed.t1, 0.0);
  EXPECT_GT(stats.observed.t2, 0.0);
  EXPECT_NEAR(records[0].observed_io_s, stats.io.io_time_s, 1e-9);
}

TEST_F(SlowLogQueryTest, ParallelBatchSharesOneLog) {
  BuildTree(3000, 8, 9);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;
  options.capacity = 64;
  SlowQueryLog log(options);
  IqSearchOptions search;
  search.slow_log = &log;
  ThreadPool pool(4);
  std::vector<std::future<Status>> batch;
  for (size_t i = 0; i < queries_.size(); ++i) {
    batch.push_back(pool.Submit([&, i] {
      return tree_->KNearestNeighbors(queries_[i], 3, search).status();
    }));
  }
  for (std::future<Status>& done : batch) {
    const Status status = done.get();
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  if (!obs::kEnabled) {
    EXPECT_EQ(log.offered(), 0u);
    return;
  }
  EXPECT_EQ(log.offered(), queries_.size());
  EXPECT_EQ(log.retained(), queries_.size());
  for (const SlowQueryRecord& record : log.Snapshot()) {
    EXPECT_EQ(record.kind, "knn");
    EXPECT_GT(record.observed_io_s, 0.0);
    EXPECT_TRUE(record.spans.empty());
  }
}

}  // namespace
}  // namespace iq
