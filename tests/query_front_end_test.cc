#include "shard/query_front_end.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/generators.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"

namespace iq {
namespace {

struct Fixture {
  MemoryStorage storage;
  Dataset data;
  Dataset queries;
  std::unique_ptr<ShardedSearcher> searcher;
};

Fixture MakeFixture() {
  Fixture f;
  f.data = GenerateUniform(160, 4, 41);
  f.queries = f.data.TakeTail(8);
  ShardedBulkLoader::Options loader_options;
  loader_options.num_shards = 3;
  ShardedBulkLoader loader(f.storage, "fe", loader_options);
  for (size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_TRUE(loader.Add(f.data[i]).ok());
  }
  auto manifest = loader.Finish();
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  auto searcher = ShardedSearcher::Open(f.storage, *manifest);
  EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
  f.searcher = std::move(searcher).value();
  return f;
}

TEST(QueryFrontEndTest, PassesQueriesThroughUnchanged) {
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  for (size_t qi = 0; qi < f.queries.size(); ++qi) {
    const PointView q = f.queries[qi];
    auto direct = f.searcher->KNearestNeighbors(q, 7);
    auto admitted = front_end.KNearestNeighbors(q, 7);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    EXPECT_EQ(*direct, *admitted);
  }
  auto range = front_end.RangeSearch(f.queries[0], 0.4);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, *f.searcher->RangeSearch(f.queries[0], 0.4));
  const Mbr window = Mbr::FromBounds(std::vector<float>(4, 0.1f),
                                     std::vector<float>(4, 0.8f));
  auto ids = front_end.WindowQuery(window);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, *f.searcher->WindowQuery(window));
  EXPECT_EQ(front_end.in_flight(), 0u);
  EXPECT_EQ(front_end.queued(), 0u);
}

TEST(QueryFrontEndTest, RejectsWhenQueueIsFull) {
  Fixture f = MakeFixture();
  // max_in_flight = 0 admits nothing, max_queued = 0 queues nobody:
  // every query is rejected immediately — deterministically.
  QueryFrontEnd front_end(*f.searcher,
                          QueryFrontEnd::Options{/*max_in_flight=*/0,
                                                 /*max_queued=*/0,
                                                 /*default_deadline_s=*/0});
  const uint64_t rejected_before =
      obs::MetricRegistry::Global()
          .GetCounter(obs::metric::kFrontendRejectedTotal)
          ->Value();
  auto result = front_end.KNearestNeighbors(f.queries[0], 3);
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  if (obs::kEnabled) {
    EXPECT_EQ(obs::MetricRegistry::Global()
                  .GetCounter(obs::metric::kFrontendRejectedTotal)
                  ->Value(),
              rejected_before + 1);
  }
}

TEST(QueryFrontEndTest, QueuedQueryFailsWhenDeadlineExpires) {
  Fixture f = MakeFixture();
  // A slot never frees (max_in_flight = 0), so the queued caller can
  // only leave via its deadline.
  QueryFrontEnd::Options options;
  options.max_in_flight = 0;
  options.max_queued = 1;
  options.default_deadline_s = 0.02;
  QueryFrontEnd front_end(*f.searcher, options);
  auto result = front_end.KNearestNeighbors(f.queries[0], 3);
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(front_end.queued(), 0u);
  EXPECT_EQ(front_end.in_flight(), 0u);
}

TEST(QueryFrontEndTest, PerQueryDeadlineOverridesDefault) {
  Fixture f = MakeFixture();
  QueryFrontEnd::Options options;
  options.max_in_flight = 0;
  options.max_queued = 1;
  options.default_deadline_s = 3600;  // would hang without the override
  QueryFrontEnd front_end(*f.searcher, options);
  ShardedSearchOptions query_options;
  query_options.deadline_s = 0.02;
  auto result = front_end.KNearestNeighbors(f.queries[0], 3, query_options);
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(QueryFrontEndTest, ConcurrentQueriesAllSucceedWithinBounds) {
  Fixture f = MakeFixture();
  QueryFrontEnd::Options options;
  options.max_in_flight = 2;
  options.max_queued = 64;  // wide enough that nobody is rejected
  QueryFrontEnd front_end(*f.searcher, options);

  std::vector<std::vector<Neighbor>> expected;
  for (size_t qi = 0; qi < f.queries.size(); ++qi) {
    auto r = f.searcher->KNearestNeighbors(f.queries[qi], 5);
    ASSERT_TRUE(r.ok());
    expected.push_back(*r);
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 5; ++round) {
        const size_t qi = (t + round) % f.queries.size();
        auto r = front_end.KNearestNeighbors(f.queries[qi], 5);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (*r != expected[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(front_end.in_flight(), 0u);
  EXPECT_EQ(front_end.queued(), 0u);
}

TEST(QueryFrontEndTest, CountsAdmissionsInRegistry) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  auto* admitted = obs::MetricRegistry::Global().GetCounter(
      obs::metric::kFrontendAdmittedTotal);
  const uint64_t before = admitted->Value();
  ASSERT_TRUE(front_end.KNearestNeighbors(f.queries[0], 3).ok());
  ASSERT_TRUE(front_end.RangeSearch(f.queries[0], 0.3).ok());
  EXPECT_EQ(admitted->Value(), before + 2);
}

/// The tentpole contract of ISSUE 9, front-end side: a query through
/// the front end records one stitched tree rooted at `frontend`, with
/// `queue_wait` and `admission` children and the whole sharded fan-out
/// grafted underneath.
TEST(QueryFrontEndTest, StitchedTraceRootsAtFrontend) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  obs::QueryTracer tracer;
  ShardedSearchOptions options;
  options.tracer = &tracer;
  ASSERT_TRUE(front_end.KNearestNeighbors(f.queries[0], 3, options).ok());
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();

  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "frontend");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  size_t roots = 0;
  bool saw_queue_wait = false;
  bool saw_admission = false;
  bool saw_sharded_root = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent == obs::kNoSpan) ++roots;
    if (span.name == "queue_wait") {
      saw_queue_wait = true;
      EXPECT_EQ(spans[span.parent].name, "frontend");
      bool has_wait = false;
      for (const auto& [key, value] : span.attrs) {
        if (key == "wait_s") has_wait = value >= 0;
      }
      EXPECT_TRUE(has_wait);
    }
    if (span.name == "admission") {
      saw_admission = true;
      EXPECT_EQ(spans[span.parent].name, "frontend");
      for (const auto& [key, value] : span.attrs) {
        if (key == "admitted") {
          EXPECT_EQ(value, 1.0);
        }
        if (key == "rejected") {
          EXPECT_EQ(value, 0.0);
        }
      }
    }
    if (span.name == "sharded_knn") {
      saw_sharded_root = true;
      EXPECT_EQ(spans[span.parent].name, "frontend");
    }
  }
  EXPECT_EQ(roots, 1u);  // everything hangs under the frontend span
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_admission);
  EXPECT_TRUE(saw_sharded_root);
}

TEST(QueryFrontEndTest, ObservesQueueWaitInHistogram) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  static constexpr double kBounds[] = {1e-5, 1e-4, 1e-3, 1e-2,
                                       0.1,  1.0,  10.0};
  auto* queue_wait = obs::MetricRegistry::Global().GetHistogram(
      obs::metric::kFrontendQueueWaitSeconds, kBounds);
  const uint64_t before = queue_wait->count();
  ASSERT_TRUE(front_end.KNearestNeighbors(f.queries[0], 3).ok());
  EXPECT_EQ(queue_wait->count(), before + 1);
}

/// A query the front end turns away never reaches the searcher; its
/// own stats record says how long it waited, and the rejection is
/// counted.
TEST(QueryFrontEndTest, RejectionIsInQuerysOwnRecord) {
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher,
                          QueryFrontEnd::Options{/*max_in_flight=*/0,
                                                 /*max_queued=*/0,
                                                 /*default_deadline_s=*/0});
  auto* rejected = obs::MetricRegistry::Global().GetCounter(
      obs::metric::kFrontendRejectedTotal);
  const uint64_t before = rejected->Value();
  ShardQueryStats stats;
  stats.shards_total = 99;  // stale: the rejection overwrites the sink
  ShardedSearchOptions options;
  options.stats = &stats;
  auto result = front_end.KNearestNeighbors(f.queries[0], 3, options);
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(stats.shards_total, 0u);
  EXPECT_EQ(stats.shards_queried, 0u);
  EXPECT_GE(stats.queue_wait_s, 0.0);
  EXPECT_LT(stats.queue_wait_s, 1.0);  // turned away at once
  if (obs::kEnabled) {
    EXPECT_EQ(rejected->Value(), before + 1);
  }
}

TEST(QueryFrontEndTest, QueueDeadlineIsInQuerysOwnRecord) {
  Fixture f = MakeFixture();
  QueryFrontEnd::Options options;
  options.max_in_flight = 0;
  options.max_queued = 1;
  options.default_deadline_s = 0.02;
  QueryFrontEnd front_end(*f.searcher, options);
  auto* expired = obs::MetricRegistry::Global().GetCounter(
      obs::metric::kFrontendDeadlineExceededTotal);
  const uint64_t before = expired->Value();
  ShardQueryStats stats;
  ShardedSearchOptions query_options;
  query_options.stats = &stats;
  auto result = front_end.KNearestNeighbors(f.queries[0], 3, query_options);
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  // It waited out its whole budget in the queue.
  EXPECT_GE(stats.queue_wait_s, 0.02);
  EXPECT_EQ(stats.shards_queried, 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(expired->Value(), before + 1);
  }
}

/// An admitted query's stats and slow-log record carry the queue wait
/// the front end measured; without a caller tracer the record has no
/// trace.
TEST(QueryFrontEndTest, SlowLogRecordCarriesQueueWait) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  obs::SlowLogOptions log_options;
  log_options.absolute_threshold_s = 1e-9;  // retain everything
  obs::SlowQueryLog log(log_options);
  ShardQueryStats stats;
  ShardedSearchOptions options;
  options.slow_log = &log;
  options.stats = &stats;
  ASSERT_TRUE(front_end.KNearestNeighbors(f.queries[0], 3, options).ok());
  ASSERT_EQ(log.retained(), 1u);
  const obs::SlowQueryRecord record = log.Snapshot()[0];
  EXPECT_EQ(record.kind, "sharded_knn");
  EXPECT_GT(stats.queue_wait_s, 0.0);
  EXPECT_EQ(record.queue_wait_s, stats.queue_wait_s);
  EXPECT_EQ(record.observed.t1, stats.totals.observed.t1);
  EXPECT_EQ(record.observed.t2, stats.totals.observed.t2);
  EXPECT_EQ(record.observed.t3, stats.totals.observed.t3);
  EXPECT_TRUE(record.spans.empty());
}

/// The IQ_OBS_DISABLED counterpart of the metric tests above: with
/// observability compiled out, queries still flow and every telemetry
/// surface reads as inert.
TEST(QueryFrontEndTest, DisabledBuildKeepsQueriesWorkingWithoutTelemetry) {
  if (obs::kEnabled) {
    GTEST_SKIP() << "covers the IQ_OBS_DISABLED configuration";
  }
  Fixture f = MakeFixture();
  QueryFrontEnd front_end(*f.searcher);
  obs::QueryTracer tracer;
  ShardedSearchOptions options;
  options.tracer = &tracer;
  auto result = front_end.KNearestNeighbors(f.queries[0], 3, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *f.searcher->KNearestNeighbors(f.queries[0], 3));
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(obs::MetricRegistry::Global()
                .GetCounter(obs::metric::kFrontendAdmittedTotal)
                ->Value(),
            0u);
}

}  // namespace
}  // namespace iq
