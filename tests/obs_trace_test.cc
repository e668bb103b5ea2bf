// QueryTracer behavior plus the tracing<->stats consistency contract:
// a traced IqTree query must record a span tree whose aggregates equal
// the QueryStats counters the same query publishes, tracing must never
// change query results (including across a shared-tracer parallel
// batch), and the span cap must degrade gracefully.

#include "obs/trace.h"

#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"

namespace iq {
namespace {

using obs::AggregateSpans;
using obs::QueryTracer;
using obs::ScopedSpan;
using obs::SpanRecord;

TEST(QueryTracerTest, RecordsTreeWithLogicalOrder) {
  QueryTracer tracer;
  const obs::SpanId root = tracer.BeginSpan("root");
  const obs::SpanId child = tracer.BeginSpan("child", root);
  tracer.AddAttr(child, "n", 2);
  tracer.AddAttr(child, "n", 3);  // accumulates
  tracer.EndSpan(child);
  tracer.EndSpan(root);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, root);
  // Logical interval nesting: root opens first, closes last.
  EXPECT_LT(spans[0].seq_begin, spans[1].seq_begin);
  EXPECT_LT(spans[1].seq_end, spans[0].seq_end);
  EXPECT_LE(spans[1].wall_begin_ns, spans[1].wall_end_ns);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "n");
  EXPECT_DOUBLE_EQ(spans[1].attrs[0].second, 5.0);
}

TEST(QueryTracerTest, CapDropsInsteadOfGrowing) {
  QueryTracer tracer(/*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    const obs::SpanId id = tracer.BeginSpan("s");
    tracer.EndSpan(id);
  }
  if (!obs::kEnabled) return;
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(QueryTracerTest, ScopedSpanToleratesNullTracer) {
  ScopedSpan span(nullptr, "noop");
  span.AddAttr("x", 1.0);
  EXPECT_EQ(span.id(), obs::kNoSpan);
}

TEST(QueryTracerTest, ConcurrentSpansAllRecorded) {
  QueryTracer tracer;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer]() {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&tracer, "work");
        span.AddAttr("i", static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!obs::kEnabled) return;
  EXPECT_EQ(tracer.Snapshot().size(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TraceExportTest, JsonAndTreeOutput) {
  QueryTracer tracer;
  const obs::SpanId root = tracer.BeginSpan("root");
  const obs::SpanId child = tracer.BeginSpan("step", root);
  tracer.AddAttr(child, "count", 3);
  tracer.EndSpan(child);
  tracer.EndSpan(root);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  const std::string json = obs::TraceToJson(spans);
  std::ostringstream tree;
  obs::PrintSpanTree(spans, tree);
  if (!obs::kEnabled) {
    EXPECT_EQ(json, "[]");
    return;
  }
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":null"), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(tree.str().find("root"), std::string::npos);
  EXPECT_NE(tree.str().find("  step"), std::string::npos);  // indented
}

class TracedQueryTest : public ::testing::Test {
 protected:
  void BuildTree(size_t n, size_t dims, unsigned seed) {
    data_ = GenerateCadLike(n + 16, dims, seed);
    queries_ = data_.TakeTail(16);
    disk_ = std::make_unique<DiskModel>(
        DiskParameters{0.010, 0.002, 2048});
    auto tree = IqTree::Build(data_, storage_, "t", *disk_, {});
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  /// The acceptance contract behind `iqtool profile`: the span tree and
  /// the QueryStats counters are produced independently and must agree.
  static void ExpectSpansMatchStats(const std::vector<SpanRecord>& spans,
                                    const IqTree::QueryStats& stats) {
    EXPECT_EQ(AggregateSpans(spans, "page", nullptr),
              static_cast<double>(stats.pages_decoded));
    EXPECT_EQ(AggregateSpans(spans, "batch", nullptr),
              static_cast<double>(stats.batches));
    EXPECT_EQ(AggregateSpans(spans, "batch", "blocks"),
              static_cast<double>(stats.blocks_transferred));
    EXPECT_EQ(AggregateSpans(spans, "refine", nullptr) +
                  AggregateSpans(spans, "exact_page", "refinements"),
              static_cast<double>(stats.refinements));
    EXPECT_EQ(AggregateSpans(spans, "page", "cells_enqueued"),
              static_cast<double>(stats.cells_enqueued));
    // Every span's io_s is a difference of the query's own clock, so
    // the spans add up to the query's io (up to rounding).
    double io_s = 0;
    for (const char* kind : {"dir_scan", "batch", "refine", "exact_page"}) {
      io_s += AggregateSpans(spans, kind, "io_s");
    }
    EXPECT_NEAR(io_s, stats.io.io_time_s, 1e-9);
    EXPECT_GT(stats.io.seeks, 0u);
  }

  Dataset data_{1};
  Dataset queries_{1};
  MemoryStorage storage_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<IqTree> tree_;
};

TEST_F(TracedQueryTest, KnnSpanAggregatesEqualQueryStats) {
  BuildTree(4000, 12, 11);
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryTracer tracer;
    IqTree::QueryStats stats;
    IqSearchOptions options;
    options.tracer = &tracer;
    options.stats = &stats;
    auto hits = tree_->KNearestNeighbors(queries_[i], 5, options);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    if (!obs::kEnabled) {
      EXPECT_TRUE(tracer.Snapshot().empty());
      continue;
    }
    const std::vector<SpanRecord> spans = tracer.Snapshot();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0].name, "knn");
    ExpectSpansMatchStats(spans, stats);
  }
}

TEST_F(TracedQueryTest, RangeSpanAggregatesEqualQueryStats) {
  BuildTree(4000, 12, 12);
  QueryTracer tracer;
  IqTree::QueryStats stats;
  IqSearchOptions options;
  options.tracer = &tracer;
  options.stats = &stats;
  auto hits = tree_->RangeSearch(queries_[0], 0.4, options);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  if (!obs::kEnabled) return;
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "range");
  ExpectSpansMatchStats(spans, stats);
}

TEST_F(TracedQueryTest, StandardAccessKnnAlsoConsistent) {
  BuildTree(4000, 12, 13);
  QueryTracer tracer;
  IqTree::QueryStats stats;
  IqSearchOptions options;
  options.optimized_access = false;
  options.tracer = &tracer;
  options.stats = &stats;
  auto hits = tree_->KNearestNeighbors(queries_[0], 3, options);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  if (!obs::kEnabled) return;
  ExpectSpansMatchStats(tracer.Snapshot(), stats);
}

TEST_F(TracedQueryTest, TracingDoesNotChangeResults) {
  BuildTree(4000, 12, 14);
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto plain = tree_->KNearestNeighbors(queries_[i], 5);
    QueryTracer tracer;
    IqSearchOptions options;
    options.tracer = &tracer;
    auto traced = tree_->KNearestNeighbors(queries_[i], 5, options);
    ASSERT_TRUE(plain.ok() && traced.ok());
    ASSERT_EQ(plain->size(), traced->size());
    for (size_t s = 0; s < plain->size(); ++s) {
      EXPECT_EQ((*plain)[s].id, (*traced)[s].id);
      EXPECT_EQ((*plain)[s].distance, (*traced)[s].distance);
    }
  }
}

TEST_F(TracedQueryTest, SharedTracerParallelBatchBitIdentical) {
  BuildTree(6000, 12, 15);
  // Ground truth: sequential untraced queries.
  std::vector<std::vector<Neighbor>> expected;
  expected.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto r = tree_->KNearestNeighbors(queries_[i], 5);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }
  // Parallel batch with every worker writing into one shared tracer.
  QueryTracer tracer;
  IqSearchOptions options;
  options.tracer = &tracer;
  ThreadPool pool(4);
  std::vector<std::future<Result<std::vector<Neighbor>>>> batch;
  for (size_t i = 0; i < queries_.size(); ++i) {
    batch.push_back(pool.Submit(
        [&, i] { return tree_->KNearestNeighbors(queries_[i], 5, options); }));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const Result<std::vector<Neighbor>> got = batch[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // operator== on Neighbor is exact: ids and distances bit for bit.
    EXPECT_EQ(*got, expected[i]) << "query " << i;
  }
  if (!obs::kEnabled) return;
  // One root span per query made it into the shared trace.
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  size_t roots = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent == obs::kNoSpan) ++roots;
  }
  EXPECT_EQ(roots, queries_.size());
  EXPECT_EQ(tracer.dropped(), 0u);
}

}  // namespace
}  // namespace iq
