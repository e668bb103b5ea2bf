// Per-query I/O accounting is the same whether a query runs alone or
// beside others: every query charges its own disk head, so its answers,
// its IqQueryStats (with `io` and the per-level `observed` split), its
// ShardQueryStats and every span's io_s are bitwise equal to the same
// query run alone. Under
// IQ_SANITIZE=thread this is also the race hunt for many threads
// querying one IqTree and one QueryFrontEnd.

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.h"
#include "core/iq_tree.h"
#include "data/generators.h"
#include "io/storage.h"
#include "obs/trace.h"
#include "shard/query_front_end.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"

namespace iq {
namespace {

/// (span name, io_s) of every span carrying io_s, in recording order.
using SpanIo = std::vector<std::pair<std::string, double>>;

/// The io_s spans of `spans`, grouped by the `shard<i>` span they sit
/// under ("" outside any shard). Within one group the spans come from
/// one thread, so their order is deterministic; the groups of a
/// sharded query interleave by thread timing.
std::map<std::string, SpanIo> IoSpansByShard(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::string, SpanIo> out;
  for (const obs::SpanRecord& span : spans) {
    std::string shard;
    for (const obs::SpanRecord* s = &span;; s = &spans[s->parent]) {
      if (s->name.rfind("shard", 0) == 0 &&
          s->name.rfind("sharded", 0) != 0) {
        shard = s->name;
        break;
      }
      if (s->parent == obs::kNoSpan) break;
    }
    for (const auto& [key, value] : span.attrs) {
      if (key == "io_s") out[shard].emplace_back(span.name, value);
    }
  }
  return out;
}

void ExpectSameIo(const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.seeks, want.seeks);
  EXPECT_EQ(got.blocks_read, want.blocks_read);
  EXPECT_EQ(got.blocks_written, want.blocks_written);
  EXPECT_EQ(got.io_time_s, want.io_time_s);
}

void ExpectSameSplit(const obs::CostBreakdown& got,
                     const obs::CostBreakdown& want) {
  EXPECT_EQ(got.t1, want.t1);
  EXPECT_EQ(got.t2, want.t2);
  EXPECT_EQ(got.t3, want.t3);
}

void ExpectSameStats(const IqQueryStats& got, const IqQueryStats& want) {
  EXPECT_EQ(got.pages_decoded, want.pages_decoded);
  EXPECT_EQ(got.blocks_transferred, want.blocks_transferred);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.refinements, want.refinements);
  EXPECT_EQ(got.cells_enqueued, want.cells_enqueued);
  ExpectSameIo(got.io, want.io);
  ExpectSameSplit(got.observed, want.observed);
}

/// A query's per-level split is its spans' io_s folded per level in
/// span order, bit for bit. A query records `refine` spans (kNN) or
/// `exact_page` spans (range, window), never both, so the t3 sum adds
/// 0.
void ExpectSplitIsSpanFold(const std::vector<obs::SpanRecord>& spans,
                           const obs::CostBreakdown& observed) {
  if (!obs::kEnabled) return;
  ExpectSameSplit(
      observed,
      obs::CostBreakdown{obs::AggregateSpans(spans, "dir_scan", "io_s"),
                         obs::AggregateSpans(spans, "batch", "io_s"),
                         obs::AggregateSpans(spans, "refine", "io_s") +
                             obs::AggregateSpans(spans, "exact_page",
                                                 "io_s")});
}

bool SameStats(const IqQueryStats& a, const IqQueryStats& b) {
  return a.pages_decoded == b.pages_decoded &&
         a.blocks_transferred == b.blocks_transferred &&
         a.batches == b.batches && a.refinements == b.refinements &&
         a.cells_enqueued == b.cells_enqueued && a.io.seeks == b.io.seeks &&
         a.io.blocks_read == b.io.blocks_read &&
         a.io.blocks_written == b.io.blocks_written &&
         a.io.io_time_s == b.io.io_time_s &&
         a.observed.t1 == b.observed.t1 && a.observed.t2 == b.observed.t2 &&
         a.observed.t3 == b.observed.t3;
}

enum class Kind { kKnn, kRange, kWindow };

const char* KindName(Kind kind) {
  return kind == Kind::kKnn ? "knn" : kind == Kind::kRange ? "range" : "window";
}

/// The window of a kWindow query: the cube of half-side `half_side`
/// around `q`.
Mbr WindowAround(PointView q, double half_side) {
  std::vector<float> lo(q.begin(), q.end());
  std::vector<float> hi(q.begin(), q.end());
  for (size_t i = 0; i < q.size(); ++i) {
    lo[i] -= static_cast<float>(half_side);
    hi[i] += static_cast<float>(half_side);
  }
  return Mbr::FromBounds(std::move(lo), std::move(hi));
}

/// What one query reports about itself: its neighbors (kNN, range) or
/// ids (window), its stats and its spans.
struct TreeRecord {
  std::vector<Neighbor> answers;
  std::vector<PointId> ids;
  IqQueryStats stats;
  std::map<std::string, SpanIo> span_io;
};

class PerQueryIoTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBlockSize = 2048;

  /// CAD-like rows at fixed g = 8, so queries read all three levels.
  void BuildTree(size_t n, size_t dims, unsigned seed) {
    data_ = GenerateCadLike(n + 32, dims, seed);
    queries_ = data_.TakeTail(32);
    disk_ = std::make_unique<DiskModel>(
        DiskParameters{0.010, 0.002, kBlockSize});
    IqTree::Options options;
    options.fixed_quant_bits = 8;
    auto tree = IqTree::Build(data_, storage_, "t", *disk_, options);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  TreeRecord Run(size_t qi, Kind kind, double param, bool optimized) const {
    TreeRecord record;
    obs::QueryTracer tracer;
    IqSearchOptions options;
    options.optimized_access = optimized;
    options.tracer = &tracer;
    options.stats = &record.stats;
    if (kind == Kind::kWindow) {
      auto ids =
          tree_->WindowQuery(WindowAround(queries_[qi], param), options);
      EXPECT_TRUE(ids.ok()) << ids.status().ToString();
      if (ids.ok()) record.ids = std::move(ids).value();
    } else {
      auto result =
          kind == Kind::kKnn
              ? tree_->KNearestNeighbors(queries_[qi],
                                         static_cast<size_t>(param), options)
              : tree_->RangeSearch(queries_[qi], param, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) record.answers = std::move(result).value();
    }
    const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
    ExpectSplitIsSpanFold(spans, record.stats.observed);
    record.span_io = IoSpansByShard(spans);
    return record;
  }

  /// Every query run alone. Run alone after ResetStats, a query's own
  /// clock also equals the DiskModel's running totals bit for bit.
  std::vector<TreeRecord> RunAlone(Kind kind, double param,
                                   bool optimized) const {
    std::vector<TreeRecord> out;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      disk_->ResetStats();
      out.push_back(Run(qi, kind, param, optimized));
      ExpectSameIo(out.back().stats.io, disk_->stats());
      EXPECT_GT(out.back().stats.io.seeks, 0u);
    }
    return out;
  }

  /// Every query submitted to a pool of `threads` workers at once.
  std::vector<TreeRecord> RunConcurrently(size_t threads, Kind kind,
                                          double param,
                                          bool optimized) const {
    ThreadPool pool(threads);
    std::vector<std::future<TreeRecord>> futures;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      futures.push_back(pool.Submit(
          [this, qi, kind, param, optimized] {
            return Run(qi, kind, param, optimized);
          }));
    }
    std::vector<TreeRecord> out;
    for (auto& future : futures) out.push_back(future.get());
    return out;
  }

  void ExpectSameRecords(const std::vector<TreeRecord>& got,
                         const std::vector<TreeRecord>& want) const {
    ASSERT_EQ(got.size(), want.size());
    for (size_t qi = 0; qi < got.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      // operator== on Neighbor is exact: ids and double distances must
      // match bit for bit, not just approximately.
      EXPECT_EQ(got[qi].answers, want[qi].answers);
      EXPECT_EQ(got[qi].ids, want[qi].ids);
      ExpectSameStats(got[qi].stats, want[qi].stats);
      EXPECT_EQ(got[qi].span_io, want[qi].span_io);
    }
  }

  /// After a concurrent batch, last_query_stats() holds one whole
  /// query's stats (whichever finished last), never a mix of two.
  void ExpectLastIsOneQuerys(const std::vector<TreeRecord>& alone) const {
    const IqQueryStats last = tree_->last_query_stats();
    bool found = false;
    for (const TreeRecord& record : alone) {
      found = found || SameStats(last, record.stats);
    }
    EXPECT_TRUE(found);
  }

  MemoryStorage storage_;
  Dataset data_;
  Dataset queries_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<IqTree> tree_;
};

TEST_F(PerQueryIoTest, KnnAtAllThreadCountsMatchesAlone) {
  BuildTree(3000, 8, 42);
  const std::vector<TreeRecord> alone = RunAlone(Kind::kKnn, 5, true);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectSameRecords(RunConcurrently(threads, Kind::kKnn, 5, true), alone);
    ExpectLastIsOneQuerys(alone);
  }
}

TEST_F(PerQueryIoTest, StandardAccessKnnMatchesAlone) {
  BuildTree(2000, 4, 7);
  const std::vector<TreeRecord> alone = RunAlone(Kind::kKnn, 3, false);
  ExpectSameRecords(RunConcurrently(4, Kind::kKnn, 3, false), alone);
}

TEST_F(PerQueryIoTest, RangeMatchesAloneInBothAccessModes) {
  BuildTree(2500, 6, 11);
  for (double radius : {0.05, 0.3}) {
    for (bool optimized : {true, false}) {
      SCOPED_TRACE("radius " + std::to_string(radius) +
                   (optimized ? ", optimized" : ", standard"));
      const std::vector<TreeRecord> alone =
          RunAlone(Kind::kRange, radius, optimized);
      for (size_t threads : {1u, 4u}) {
        ExpectSameRecords(
            RunConcurrently(threads, Kind::kRange, radius, optimized),
            alone);
      }
    }
  }
}

TEST_F(PerQueryIoTest, WindowMatchesAlone) {
  BuildTree(2500, 6, 11);
  size_t hits = 0;
  for (double half_side : {0.05, 0.2}) {
    SCOPED_TRACE("half-side " + std::to_string(half_side));
    const std::vector<TreeRecord> alone =
        RunAlone(Kind::kWindow, half_side, true);
    for (const TreeRecord& record : alone) hits += record.ids.size();
    for (size_t threads : {1u, 4u}) {
      ExpectSameRecords(
          RunConcurrently(threads, Kind::kWindow, half_side, true), alone);
      ExpectLastIsOneQuerys(alone);
    }
  }
  EXPECT_GT(hits, 0u);
}

/// What one sharded query reports about itself.
struct ShardedRecord {
  std::vector<Neighbor> answers;
  std::vector<PointId> ids;
  ShardQueryStats stats;
  std::map<std::string, SpanIo> span_io;
};

ShardedRecord RunSharded(const QueryFrontEnd& front_end, PointView q,
                         Kind kind) {
  ShardedRecord record;
  obs::QueryTracer tracer;
  ShardedSearchOptions options;
  options.tracer = &tracer;
  options.stats = &record.stats;
  if (kind == Kind::kWindow) {
    auto ids = front_end.WindowQuery(WindowAround(q, 0.15), options);
    EXPECT_TRUE(ids.ok()) << ids.status().ToString();
    if (ids.ok()) record.ids = std::move(ids).value();
  } else {
    auto result = kind == Kind::kKnn
                      ? front_end.KNearestNeighbors(q, 7, options)
                      : front_end.RangeSearch(q, 0.15, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) record.answers = std::move(result).value();
  }
  record.span_io = IoSpansByShard(tracer.Snapshot());
  return record;
}

TEST(PerQueryIoShardedTest, FrontEndQueriesMatchAlone) {
  MemoryStorage storage;
  Dataset data = GenerateCadLike(2400, 6, 61);
  const Dataset queries = data.TakeTail(24);
  const DiskParameters disk{0.010, 0.002, 2048};
  ShardedBulkLoader::Options loader_options;
  loader_options.num_shards = 4;
  loader_options.plan = ShardPlan::kRankPartition;
  loader_options.disk = disk;
  ShardedBulkLoader loader(storage, "pq", loader_options);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(loader.Add(data[i]).ok());
  }
  auto manifest = loader.Finish();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ShardedSearcher::Options searcher_options;
  searcher_options.threads = 2;
  searcher_options.disk = disk;
  auto searcher = ShardedSearcher::Open(storage, *manifest, searcher_options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  QueryFrontEnd::Options fe_options;
  fe_options.max_in_flight = 3;
  fe_options.max_queued = 64;
  const QueryFrontEnd front_end(**searcher, fe_options);

  for (Kind kind : {Kind::kKnn, Kind::kRange, Kind::kWindow}) {
    SCOPED_TRACE(KindName(kind));
    std::vector<ShardedRecord> alone;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      alone.push_back(RunSharded(front_end, queries[qi], kind));
      EXPECT_GT(alone.back().stats.shards_queried, 0u);
    }
    // Clients take queries round-robin; each query's record lands in
    // its own slot.
    constexpr size_t kClients = 3;
    std::vector<ShardedRecord> together(queries.size());
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t qi = c; qi < queries.size(); qi += kClients) {
          together[qi] = RunSharded(front_end, queries[qi], kind);
        }
      });
    }
    for (std::thread& client : clients) client.join();

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      const ShardedRecord& got = together[qi];
      const ShardedRecord& want = alone[qi];
      EXPECT_EQ(got.answers, want.answers);
      EXPECT_EQ(got.ids, want.ids);
      EXPECT_EQ(got.stats.shards_total, want.stats.shards_total);
      EXPECT_EQ(got.stats.shards_queried, want.stats.shards_queried);
      EXPECT_EQ(got.stats.shards_pruned, want.stats.shards_pruned);
      ExpectSameStats(got.stats.totals, want.stats.totals);
      EXPECT_EQ(got.stats.io_s_sum, want.stats.io_s_sum);
      EXPECT_EQ(got.stats.io_s_max, want.stats.io_s_max);
      EXPECT_EQ(got.stats.dropped_spans, want.stats.dropped_spans);
      EXPECT_EQ(got.span_io, want.span_io);
    }
  }
}

}  // namespace
}  // namespace iq
