#include "shard/sharded_searcher.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "io/disk_model.h"
#include "io/storage.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "shard/sharded_bulk_loader.h"

namespace iq {
namespace {

/// A single IqTree and a sharded layout built over the same point
/// stream, ready for result comparison.
struct Fixture {
  MemoryStorage storage;
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<IqTree> single;
  std::unique_ptr<ShardedSearcher> sharded;
};

Fixture MakeFixture(const Dataset& data, size_t num_shards,
                    ShardPlan plan = ShardPlan::kRoundRobin,
                    size_t batch_points = 32, size_t threads = 3) {
  Fixture f;
  f.disk = std::make_unique<DiskModel>(DiskParameters{});
  auto single = IqTree::Build(data, f.storage, "single", *f.disk, {});
  EXPECT_TRUE(single.ok()) << single.status().ToString();
  f.single = std::move(single).value();

  ShardedBulkLoader::Options loader_options;
  loader_options.num_shards = num_shards;
  loader_options.plan = plan;
  loader_options.batch_points = batch_points;
  ShardedBulkLoader loader(f.storage, "sharded", loader_options);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(loader.Add(data[i]).ok());
  }
  auto manifest = loader.Finish();
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();

  ShardedSearcher::Options searcher_options;
  searcher_options.threads = threads;
  auto sharded = ShardedSearcher::Open(f.storage, *manifest, searcher_options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  f.sharded = std::move(sharded).value();
  return f;
}

/// The bit-identity contract: kNN, range, and window results of the
/// sharded facade match a single tree over the same stream exactly.
/// Window compares as sorted sets (the single tree returns page order;
/// the facade sorts ascending — same ids either way).
void ExpectQueriesMatch(const Fixture& f, const Dataset& queries) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const PointView q = queries[qi];
    for (size_t k : {size_t{1}, size_t{5}, size_t{17}}) {
      auto expected = f.single->KNearestNeighbors(q, k);
      auto actual = f.sharded->KNearestNeighbors(q, k);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*expected, *actual) << "knn query " << qi << " k " << k;
    }
    auto expected_range = f.single->RangeSearch(q, 0.35);
    auto actual_range = f.sharded->RangeSearch(q, 0.35);
    ASSERT_TRUE(expected_range.ok());
    ASSERT_TRUE(actual_range.ok()) << actual_range.status().ToString();
    EXPECT_EQ(*expected_range, *actual_range) << "range query " << qi;
  }

  const size_t dims = queries.dims();
  const Mbr window = Mbr::FromBounds(std::vector<float>(dims, 0.2f),
                                     std::vector<float>(dims, 0.7f));
  auto expected_window = f.single->WindowQuery(window);
  auto actual_window = f.sharded->WindowQuery(window);
  ASSERT_TRUE(expected_window.ok());
  ASSERT_TRUE(actual_window.ok()) << actual_window.status().ToString();
  std::vector<PointId> expected_ids = *expected_window;
  std::sort(expected_ids.begin(), expected_ids.end());
  EXPECT_EQ(expected_ids, *actual_window);
}

TEST(ShardedSearcherTest, BitIdenticalToSingleTreeAcrossShardCounts) {
  // 403 points: with 7 shards the last round-robin shard is uneven.
  Dataset data = GenerateUniform(415, 6, 7);
  Dataset queries = data.TakeTail(12);
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    Fixture f = MakeFixture(data, num_shards);
    EXPECT_EQ(f.sharded->num_shards(), num_shards);
    EXPECT_EQ(f.sharded->size(), data.size());
    ExpectQueriesMatch(f, queries);
  }
}

TEST(ShardedSearcherTest, BitIdenticalUnderRankPartition) {
  Dataset data = GenerateCadLike(330, 6, 11);
  Dataset queries = data.TakeTail(10);
  Fixture f = MakeFixture(data, 4, ShardPlan::kRankPartition);
  ExpectQueriesMatch(f, queries);
}

TEST(ShardedSearcherTest, StreamingBatchSizeDoesNotChangeResults) {
  Dataset data = GenerateUniform(140, 4, 3);
  Dataset queries = data.TakeTail(5);
  Fixture tiny_batches = MakeFixture(data, 3, ShardPlan::kRoundRobin, 8);
  Fixture one_shot = MakeFixture(data, 3, ShardPlan::kRoundRobin, 100000);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto a = tiny_batches.sharded->KNearestNeighbors(queries[qi], 9);
    auto b = one_shot.sharded->KNearestNeighbors(queries[qi], 9);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST(ShardedSearcherTest, KLargerThanDatasetReturnsEverything) {
  Dataset data = GenerateUniform(90, 4, 5);
  Dataset queries = data.TakeTail(2);
  Fixture f = MakeFixture(data, 4);
  auto expected = f.single->KNearestNeighbors(queries[0], 1000);
  auto actual = f.sharded->KNearestNeighbors(queries[0], 1000);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual->size(), data.size());
  EXPECT_EQ(*expected, *actual);
}

/// Two well-separated blobs on dimension 0 under a rank partition:
/// the middle shards stay empty and the far blob's shard is pruned by
/// manifest-MBR MINDIST >= the kth distance found in the near shard.
TEST(ShardedSearcherTest, MbrPruningSkipsFarShardsOnClusteredData) {
  const size_t dims = 4;
  Dataset base = GenerateUniform(200, dims, 13);
  Dataset data(dims);
  for (size_t i = 0; i < base.size(); ++i) {
    std::vector<float> p(base[i].begin(), base[i].end());
    // Blob A: dim0 in [0.05, 0.15] -> shard 0 of 4. Blob B: dim0 in
    // [0.85, 0.95] -> shard 3. Shards 1 and 2 get nothing.
    p[0] = (i % 2 == 0) ? 0.05f + 0.1f * p[0] : 0.85f + 0.1f * p[0];
    data.Append(PointView(p.data(), dims));
  }

  // One worker thread => one shard per scatter wave, so the kth
  // distance from the near shard is known before the far shard would
  // be dispatched — the far blob must be MINDIST-pruned, not queried.
  Fixture f = MakeFixture(data, 4, ShardPlan::kRankPartition,
                          /*batch_points=*/32, /*threads=*/1);
  std::vector<float> q(data[0].begin(), data[0].end());
  ShardQueryStats stats;
  ShardedSearchOptions options;
  options.stats = &stats;
  auto expected = f.single->KNearestNeighbors(PointView(q.data(), dims), 5);
  auto actual =
      f.sharded->KNearestNeighbors(PointView(q.data(), dims), 5, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*expected, *actual);

  EXPECT_EQ(stats.shards_total, 4u);
  // One shard answered; the far blob was MINDIST-pruned and the two
  // empty middle shards never ran.
  EXPECT_EQ(stats.shards_queried, 1u);
  EXPECT_EQ(stats.shards_pruned, 3u);
}

TEST(ShardedSearcherTest, AggregatesQueryStatsAcrossShards) {
  Dataset data = GenerateUniform(210, 5, 17);
  Dataset queries = data.TakeTail(3);
  Fixture f = MakeFixture(data, 3);
  ShardQueryStats stats;
  ShardedSearchOptions options;
  options.stats = &stats;
  auto result = f.sharded->KNearestNeighbors(queries[0], 7, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.shards_total, 3u);
  EXPECT_EQ(stats.shards_queried + stats.shards_pruned, 3u);
  EXPECT_GT(stats.shards_queried, 0u);
  EXPECT_GT(stats.totals.pages_decoded, 0u);
  EXPECT_GT(stats.totals.blocks_transferred, 0u);
  EXPECT_GT(stats.io_s_max, 0.0);
  EXPECT_GE(stats.io_s_sum, stats.io_s_max);
  EXPECT_FALSE(stats.truncated);
  // The shards' own io adds up to the aggregate.
  EXPECT_GT(stats.totals.io.seeks, 0u);
  EXPECT_EQ(stats.totals.io.io_time_s, stats.io_s_sum);

  // A query without a sink leaves the caller's copy alone.
  ASSERT_TRUE(f.sharded->KNearestNeighbors(queries[1], 7).ok());
  EXPECT_EQ(stats.shards_total, 3u);
}

TEST(ShardedSearcherTest, ExpiredDeadlineFailsQuery) {
  Dataset data = GenerateUniform(120, 4, 19);
  Dataset queries = data.TakeTail(2);
  Fixture f = MakeFixture(data, 3);
  ShardedSearchOptions options;
  options.deadline_s = 1e-9;
  auto result = f.sharded->KNearestNeighbors(queries[0], 5, options);
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  auto range = f.sharded->RangeSearch(queries[0], 0.3, options);
  EXPECT_TRUE(range.status().IsDeadlineExceeded());
  const Mbr window = Mbr::FromBounds(std::vector<float>(4, 0.1f),
                                     std::vector<float>(4, 0.9f));
  auto ids = f.sharded->WindowQuery(window, options);
  EXPECT_TRUE(ids.status().IsDeadlineExceeded());
}

TEST(ShardedSearcherTest, OffersOneAggregateRecordPerQueryToSlowLog) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Dataset data = GenerateUniform(150, 4, 23);
  Dataset queries = data.TakeTail(3);
  Fixture f = MakeFixture(data, 3);

  obs::SlowLogOptions log_options;
  log_options.absolute_threshold_s = 0.0;
  log_options.quantile = 0.0;  // retain everything
  obs::SlowQueryLog log(log_options);
  ShardedSearchOptions options;
  options.slow_log = &log;
  ASSERT_TRUE(f.sharded->KNearestNeighbors(queries[0], 5, options).ok());
  EXPECT_EQ(log.offered(), 1u);
  ASSERT_EQ(log.retained(), 1u);
  const obs::SlowQueryRecord record = log.Snapshot()[0];
  EXPECT_FALSE(record.truncated);
  EXPECT_GT(record.observed_io_s, 0.0);
  EXPECT_GT(record.predicted.total(), 0.0);
  ASSERT_TRUE(f.sharded->RangeSearch(queries[1], 0.3, options).ok());
  EXPECT_EQ(log.offered(), 2u);
  // Window queries are never offered: their shard searches record no
  // I/O spans, so a record would carry 0 s of observed I/O and drag
  // the adaptive threshold down.
  const Mbr window = Mbr::FromBounds(std::vector<float>(4, 0.1f),
                                     std::vector<float>(4, 0.9f));
  auto ids = f.sharded->WindowQuery(window, options);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_FALSE(ids->empty());
  EXPECT_EQ(log.offered(), 2u);
}

/// Satellite fix (ISSUE 8): sharded fan-out multiplies span volume, so
/// per-shard tracer drops must surface in the aggregate stats and mark
/// the slow-log record truncated.
TEST(ShardedSearcherTest, TracerDropsPropagateToStatsAndSlowLog) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Dataset data = GenerateUniform(150, 4, 29);
  Dataset queries = data.TakeTail(2);
  Fixture f = MakeFixture(data, 3);

  obs::QueryTracer tiny_tracer(/*max_spans=*/1);
  obs::SlowLogOptions log_options;
  log_options.quantile = 0.0;
  obs::SlowQueryLog log(log_options);
  ShardQueryStats stats;
  ShardedSearchOptions options;
  options.tracer = &tiny_tracer;
  options.slow_log = &log;
  options.stats = &stats;
  ASSERT_TRUE(f.sharded->KNearestNeighbors(queries[0], 5, options).ok());

  EXPECT_GT(stats.dropped_spans, 0u);
  EXPECT_TRUE(stats.truncated);
  ASSERT_EQ(log.retained(), 1u);
  EXPECT_TRUE(log.Snapshot()[0].truncated);
}

/// The sharded query kinds the stitched-trace contract covers.
enum class QueryKind { kKnn, kRange, kWindow };

const char* RootSpanName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKnn:
      return "sharded_knn";
    case QueryKind::kRange:
      return "sharded_range";
    case QueryKind::kWindow:
      return "sharded_window";
  }
  return "";
}

/// Runs one sharded query of `kind` (k = 3, r = 0.3, or the window
/// [q - 0.2, q + 0.2]) and returns whether it succeeded.
bool RunShardedQuery(const ShardedSearcher& sharded, QueryKind kind,
                     PointView q, const ShardedSearchOptions& options) {
  switch (kind) {
    case QueryKind::kKnn:
      return sharded.KNearestNeighbors(q, 3, options).ok();
    case QueryKind::kRange:
      return sharded.RangeSearch(q, 0.3, options).ok();
    case QueryKind::kWindow: {
      std::vector<float> lo(q.size());
      std::vector<float> hi(q.size());
      for (size_t d = 0; d < q.size(); ++d) {
        lo[d] = q[d] - 0.2f;
        hi[d] = q[d] + 0.2f;
      }
      return sharded.WindowQuery(Mbr::FromBounds(lo, hi), options).ok();
    }
  }
  return false;
}

/// One sharded query of any kind records one stitched span tree — a
/// `sharded_<kind>` root, `wave<i>` children, and a `shard<i>` span per
/// shard (pruned shards as zero-cost annotated leaves) with the shard's
/// whole IQ-tree subtree grafted underneath (kNN/range; the single
/// tree's window query is untraced) — and the tree's sums agree with
/// ShardQueryStats exactly.
TEST(ShardedSearcherTest, StitchedTraceMatchesAggregateStats) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Dataset data = GenerateClustered(400, 4, 37, {});
  Dataset queries = data.TakeTail(4);
  Fixture f = MakeFixture(data, 4, ShardPlan::kRankPartition);

  for (QueryKind kind :
       {QueryKind::kKnn, QueryKind::kRange, QueryKind::kWindow}) {
    const std::string root_name = RootSpanName(kind);
    // The per-shard IQ-tree root each queried shard grafts ("" for
    // window: no per-shard subtree).
    const std::string subtree = kind == QueryKind::kKnn     ? "knn"
                                : kind == QueryKind::kRange ? "range"
                                                            : "";
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE(root_name + " query " + std::to_string(qi));
      obs::QueryTracer tracer;
      ShardQueryStats stats;
      ShardedSearchOptions options;
      options.tracer = &tracer;
      options.stats = &stats;
      ASSERT_TRUE(RunShardedQuery(*f.sharded, kind, queries[qi], options));
      const std::vector<obs::SpanRecord> spans = tracer.Snapshot();

      // Exactly one root, and it is the sharded facade's span.
      size_t roots = 0;
      for (const obs::SpanRecord& span : spans) {
        if (span.parent == obs::kNoSpan) {
          ++roots;
          EXPECT_EQ(span.name, root_name);
        }
      }
      EXPECT_EQ(roots, 1u);

      // Every shard<i> span is accounted for: queried ones carry io_s
      // and hang under a wave<i> span with the per-shard subtree
      // beneath; pruned ones are zero-cost leaves under the root.
      size_t shard_spans = 0;
      size_t pruned_spans = 0;
      size_t subtrees = 0;
      for (size_t i = 0; i < spans.size(); ++i) {
        const obs::SpanRecord& span = spans[i];
        if (span.name.rfind("shard", 0) == 0 &&
            span.name.rfind("sharded", 0) != 0) {
          ++shard_spans;
          bool pruned = false;
          for (const auto& [key, value] : span.attrs) {
            if (key == "pruned") pruned = value > 0;
          }
          if (pruned) {
            ++pruned_spans;
            EXPECT_EQ(spans[span.parent].name, root_name);
          } else {
            EXPECT_EQ(spans[span.parent].name.rfind("wave", 0), 0u);
          }
        }
        if (!subtree.empty() && span.name == subtree) {
          ++subtrees;
          ASSERT_NE(span.parent, obs::kNoSpan);
          EXPECT_EQ(spans[span.parent].name.rfind("shard", 0), 0u);
        }
      }
      EXPECT_EQ(shard_spans, stats.shards_queried + stats.shards_pruned);
      EXPECT_EQ(pruned_spans, stats.shards_pruned);
      if (!subtree.empty()) {
        EXPECT_EQ(subtrees, stats.shards_queried);
      }
      EXPECT_EQ(stats.shards_queried + stats.shards_pruned,
                stats.shards_total);

      // The stitched tree's io_s sums equal the aggregated stats
      // bit-exactly (same values folded in the same gather order).
      EXPECT_EQ(obs::AggregateSpansByPrefix(spans, "shard", "io_s"),
                stats.io_s_sum);
      EXPECT_EQ(obs::AggregateSpansByPrefix(spans, "shard", "pruned"),
                static_cast<double>(stats.shards_pruned));
      EXPECT_EQ(obs::AggregateSpans(spans, "page", nullptr),
                static_cast<double>(stats.totals.pages_decoded));
      if (kind == QueryKind::kWindow) {
        // The single tree's WindowQuery reports only its io.
        EXPECT_EQ(stats.totals.pages_decoded, 0u);
        EXPECT_EQ(stats.totals.blocks_transferred, 0u);
        EXPECT_EQ(stats.totals.batches, 0u);
        EXPECT_EQ(stats.totals.refinements, 0u);
        EXPECT_EQ(stats.totals.cells_enqueued, 0u);
      }
    }
  }
}

/// Satellite (ISSUE 9): slow-log records of sharded queries carry the
/// per-shard predicted-vs-observed pairs, so calibration can localize
/// a mispredicting shard.
TEST(ShardedSearcherTest, SlowLogRecordCarriesPerShardSamples) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with IQ_OBS_DISABLED";
  Dataset data = GenerateUniform(150, 4, 43);
  Dataset queries = data.TakeTail(2);
  Fixture f = MakeFixture(data, 3);

  obs::SlowLogOptions log_options;
  log_options.quantile = 0.0;  // retain everything
  obs::SlowQueryLog log(log_options);
  ShardQueryStats stats;
  ShardedSearchOptions options;
  options.slow_log = &log;
  options.stats = &stats;
  ASSERT_TRUE(f.sharded->KNearestNeighbors(queries[0], 5, options).ok());
  ASSERT_EQ(log.retained(), 1u);
  const obs::SlowQueryRecord record = log.Snapshot()[0];
  ASSERT_EQ(record.per_shard.size(), stats.shards_queried);
  double observed_sum = 0;
  for (const obs::ShardCostSample& sample : record.per_shard) {
    EXPECT_LT(sample.shard, f.sharded->num_shards());
    EXPECT_GT(sample.predicted.total(), 0.0);
    EXPECT_GT(sample.observed_io_s, 0.0);
    observed_sum += sample.observed_io_s;
  }
  EXPECT_EQ(observed_sum, stats.io_s_sum);
}

TEST(ShardedSearcherTest, RejectsMismatchedQueries) {
  Dataset data = GenerateUniform(80, 4, 31);
  Fixture f = MakeFixture(data, 2);
  const float q3[3] = {0.5f, 0.5f, 0.5f};
  EXPECT_TRUE(f.sharded->KNearestNeighbors(PointView(q3, 3), 5)
                  .status()
                  .IsInvalidArgument());
  const float q4[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_TRUE(f.sharded->RangeSearch(PointView(q4, 4), -1.0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      f.sharded->WindowQuery(Mbr::UnitCube(3)).status().IsInvalidArgument());
}

/// One finite 4-d query plus copies with a NaN, +inf and -inf coordinate.
std::vector<std::vector<float>> NonFiniteQueries() {
  const std::vector<float> good{0.5f, 0.5f, 0.5f, 0.5f};
  std::vector<std::vector<float>> bad;
  for (float x : {std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity()}) {
    bad.push_back(good);
    bad.back()[1] = x;
  }
  return bad;
}

TEST(ShardedSearcherTest, KnnRejectsNonFiniteQuery) {
  Dataset data = GenerateUniform(80, 4, 32);
  Fixture f = MakeFixture(data, 2);
  for (const std::vector<float>& q : NonFiniteQueries()) {
    EXPECT_TRUE(f.sharded->KNearestNeighbors(q, 5).status()
                    .IsInvalidArgument());
  }
}

TEST(ShardedSearcherTest, RangeRejectsNonFiniteQueryOrNaNRadius) {
  Dataset data = GenerateUniform(80, 4, 33);
  Fixture f = MakeFixture(data, 2);
  for (const std::vector<float>& q : NonFiniteQueries()) {
    EXPECT_TRUE(f.sharded->RangeSearch(q, 0.2).status().IsInvalidArgument());
  }
  const std::vector<float> good{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_TRUE(f.sharded->RangeSearch(good, std::nan("")).status()
                  .IsInvalidArgument());
}

TEST(ShardedBulkLoaderTest, RefusesUseAfterFinishAndEmptyFinish) {
  MemoryStorage storage;
  {
    ShardedBulkLoader loader(storage, "none");
    // Finishing an empty load has no dimensionality to record.
    EXPECT_TRUE(loader.Finish().status().IsInvalidArgument());
  }
  ShardedBulkLoader loader(storage, "done");
  const float p[2] = {0.25f, 0.75f};
  ASSERT_TRUE(loader.Add(PointView(p, 2)).ok());
  ASSERT_TRUE(loader.Finish().ok());
  // iqlint: allow(typestate): exercising the runtime guards behind the protocol
  EXPECT_TRUE(loader.Add(PointView(p, 2)).IsInvalidArgument());
  EXPECT_TRUE(loader.Finish().status().IsInvalidArgument());
}

TEST(ShardedBulkLoaderTest, RejectsMixedDimensionalities) {
  MemoryStorage storage;
  ShardedBulkLoader loader(storage, "mixed");
  const float p2[2] = {0.1f, 0.2f};
  const float p3[3] = {0.1f, 0.2f, 0.3f};
  ASSERT_TRUE(loader.Add(PointView(p2, 2)).ok());
  EXPECT_TRUE(loader.Add(PointView(p3, 3)).IsInvalidArgument());
}

}  // namespace
}  // namespace iq
