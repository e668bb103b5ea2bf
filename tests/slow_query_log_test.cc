// Slow-query log: threshold policies (absolute and adaptive-quantile),
// ring eviction, the truncated flag for capped tracers (the 64k
// span-cap interaction), the JSON dump, and end-to-end capture through
// IqTree queries and a concurrent batch on a ThreadPool.

#include "obs/slow_log.h"

#include <future>
#include <memory>
#include <string>
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
using obs::SpanRecord;

/// A minimal self-contained query trace whose observed total is `io_s`
/// (one root "knn" span with one "batch" child carrying the time).
std::vector<SpanRecord> MakeTrace(double io_s) {
  std::vector<SpanRecord> spans(2);
  spans[0].name = "knn";
  spans[0].parent = obs::kNoSpan;
  spans[1].name = "batch";
  spans[1].parent = 0;
  spans[1].attrs.emplace_back("io_s", io_s);
  return spans;
}

TEST(SlowQueryLogTest, AbsoluteThresholdFiltersCheapQueries) {
  SlowLogOptions options;
  options.absolute_threshold_s = 1.0;
  SlowQueryLog log(options);
  log.Offer(MakeTrace(0.5), 0, CostBreakdown{}, 0);
  log.Offer(MakeTrace(2.0), 0, CostBreakdown{}, 0);
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
}

TEST(SlowQueryLogTest, RingEvictsOldestBeyondCapacity) {
  if (!obs::kEnabled) return;
  SlowLogOptions options;
  options.capacity = 2;
  options.absolute_threshold_s = 0.001;
  SlowQueryLog log(options);
  for (int i = 0; i < 5; ++i) {
    log.Offer(MakeTrace(1.0), 0, CostBreakdown{}, 0);
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
    log.Offer(MakeTrace(0.01), 0, CostBreakdown{}, 0);
  }
  EXPECT_EQ(log.retained(), 8u);
  // Warmed: the p75 of the io_s window sits at the 0.01 bucket bound,
  // so an equal-cost query no longer clears it...
  EXPECT_GT(log.current_threshold_s(), 0.0);
  log.Offer(MakeTrace(0.005), 0, CostBreakdown{}, 0);
  EXPECT_EQ(log.retained(), 8u);
  // ...but a 100x outlier does.
  log.Offer(MakeTrace(1.0), 0, CostBreakdown{}, 0);
  EXPECT_EQ(log.retained(), 9u);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  EXPECT_DOUBLE_EQ(records.back().observed_io_s, 1.0);
}

TEST(SlowQueryLogTest, DroppedSpansMarkRecordTruncatedIntoJson) {
  if (!obs::kEnabled) return;
  SlowLogOptions options;
  options.absolute_threshold_s = 0.001;
  SlowQueryLog log(options);
  log.Offer(MakeTrace(1.0), 0, CostBreakdown{1.0, 2.0, 3.0},
            /*dropped_spans=*/7);
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].truncated);
  const std::string json = obs::SlowLogToJson(records);
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"predicted\":{\"t1\":1"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":["), std::string::npos);
}

TEST(SlowQueryLogTest, SubtreeExtractionRemapsParents) {
  if (!obs::kEnabled) return;
  // Shared-tracer layout: two query roots, children interleaved.
  std::vector<SpanRecord> spans(4);
  spans[0].name = "knn";
  spans[0].parent = obs::kNoSpan;
  spans[1].name = "range";
  spans[1].parent = obs::kNoSpan;
  spans[2].name = "batch";
  spans[2].parent = 1;
  spans[2].attrs.emplace_back("io_s", 5.0);
  spans[3].name = "dir_scan";
  spans[3].parent = 0;
  spans[3].attrs.emplace_back("io_s", 0.5);
  SlowLogOptions options;
  options.absolute_threshold_s = 0.001;
  SlowQueryLog log(options);
  log.Offer(spans, 1, CostBreakdown{}, 0);  // query B only
  const std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "range");
  EXPECT_DOUBLE_EQ(records[0].observed_io_s, 5.0);
  // Only the "range" subtree survives, with remapped parent ids.
  ASSERT_EQ(records[0].spans.size(), 2u);
  EXPECT_EQ(records[0].spans[0].name, "range");
  EXPECT_EQ(records[0].spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(records[0].spans[1].name, "batch");
  EXPECT_EQ(records[0].spans[1].parent, 0u);
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

TEST_F(SlowLogQueryTest, CapturesQueriesWithoutCallerTracer) {
  BuildTree(2000, 8, 3);
  SlowLogOptions options;
  options.absolute_threshold_s = 1e-9;  // retain everything
  SlowQueryLog log(options);
  IqSearchOptions search;
  search.slow_log = &log;  // no tracer: the search makes a private one
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
  EXPECT_GT(records[0].predicted.total(), 0.0);  // tree's PredictCost
  EXPECT_FALSE(records[0].spans.empty());
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
    EXPECT_FALSE(record.spans.empty());
  }
}

}  // namespace
}  // namespace iq
