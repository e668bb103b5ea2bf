// Concurrency stress for the sharded query engine: many client
// threads hammer one QueryFrontEnd with a mix of unbounded and
// tiny-deadline queries while a poller reads the admission gauges, so
// TSan (the `thread` CI leg) sees admission, queueing, deadline
// expiry, reject-on-full and scatter-gather fan-out all racing each
// other. Per-query stats under concurrency are per_query_io_test's.

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/generators.h"
#include "io/storage.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "shard/query_front_end.h"
#include "shard/sharded_bulk_loader.h"
#include "shard/sharded_searcher.h"

namespace iq {
namespace {

struct Fixture {
  MemoryStorage storage;
  Dataset data;
  Dataset queries;
  std::unique_ptr<ShardedSearcher> searcher;
  std::vector<std::vector<Neighbor>> expected;
};

Fixture MakeFixture() {
  Fixture f;
  f.data = GenerateClustered(300, 4, 53, {});
  f.queries = f.data.TakeTail(10);
  ShardedBulkLoader::Options loader_options;
  loader_options.num_shards = 4;
  loader_options.plan = ShardPlan::kRankPartition;
  ShardedBulkLoader loader(f.storage, "stress", loader_options);
  for (size_t i = 0; i < f.data.size(); ++i) {
    EXPECT_TRUE(loader.Add(f.data[i]).ok());
  }
  auto manifest = loader.Finish();
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  ShardedSearcher::Options searcher_options;
  searcher_options.threads = 3;
  auto searcher = ShardedSearcher::Open(f.storage, *manifest, searcher_options);
  EXPECT_TRUE(searcher.ok()) << searcher.status().ToString();
  f.searcher = std::move(searcher).value();
  for (size_t qi = 0; qi < f.queries.size(); ++qi) {
    auto r = f.searcher->KNearestNeighbors(f.queries[qi], 5);
    EXPECT_TRUE(r.ok());
    f.expected.push_back(*r);
  }
  return f;
}

TEST(ShardStressTest, FrontEndUnderContention) {
  Fixture f = MakeFixture();
  QueryFrontEnd::Options options;
  options.max_in_flight = 2;
  options.max_queued = 2;
  QueryFrontEnd front_end(*f.searcher, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kQueriesPerThread = 30;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> deadline{0};
  std::atomic<size_t> wrong{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi = (t * kQueriesPerThread + i) % f.queries.size();
        ShardedSearchOptions query_options;
        // Every third query carries a deadline it cannot possibly
        // meet, exercising expiry both in the queue and mid-search.
        if (i % 3 == 2) query_options.deadline_s = 1e-9;
        auto r =
            front_end.KNearestNeighbors(f.queries[qi], 5, query_options);
        if (r.ok()) {
          ok.fetch_add(1);
          if (*r != f.expected[qi]) wrong.fetch_add(1);
        } else if (r.status().IsUnavailable()) {
          rejected.fetch_add(1);
        } else if (r.status().IsDeadlineExceeded()) {
          deadline.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected status: " << r.status().ToString();
        }
      }
    });
  }

  // A poller racing the clients: reads must be clean under TSan.
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      (void)front_end.in_flight();
      (void)front_end.queued();
      std::this_thread::yield();
    }
  });

  for (auto& thread : clients) thread.join();
  stop.store(true);
  poller.join();

  EXPECT_EQ(ok.load() + rejected.load() + deadline.load(),
            kThreads * kQueriesPerThread);
  // Every admitted-and-completed query returned the exact answer.
  EXPECT_EQ(wrong.load(), 0u);
  // With only 2 slots + 2 queue spots for 8 clients, at least one
  // query of every outcome class should occur; "ok" is the only one
  // guaranteed (the no-deadline majority always completes eventually).
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(front_end.in_flight(), 0u);
  EXPECT_EQ(front_end.queued(), 0u);
}

/// The flight recorder's reader APIs racing its single-producer
/// rings: clients record control-plane events through the front end
/// while a poller snapshots, dumps, and clears the recorder
/// mid-query. TSan must see no races (slot words are atomics; dump
/// state is under the rank-90 leaf mutex), and torn slot decodes must
/// never crash the JSON encoder.
TEST(ShardStressTest, FlightRecorderDrainRacesQueries) {
  Fixture f = MakeFixture();
  obs::FlightRecorder::Global().Clear();
  QueryFrontEnd::Options options;
  options.max_in_flight = 2;
  options.max_queued = 2;
  QueryFrontEnd front_end(*f.searcher, options);

  constexpr size_t kThreads = 6;
  constexpr size_t kQueriesPerThread = 25;
  std::atomic<size_t> completed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        const size_t qi = (t * kQueriesPerThread + i) % f.queries.size();
        ShardedSearchOptions query_options;
        if (i % 4 == 3) query_options.deadline_s = 1e-9;
        (void)front_end.KNearestNeighbors(f.queries[qi], 5, query_options);
        completed.fetch_add(1);
      }
    });
  }

  // The racing poller: drains the recorder every way it can while the
  // clients are still appending to their rings.
  std::atomic<bool> stop{false};
  std::atomic<size_t> drained{0};
  std::thread poller([&] {
    auto& recorder = obs::FlightRecorder::Global();
    while (!stop.load()) {
      drained.fetch_add(recorder.Snapshot().size());
      recorder.TriggerDump("on_demand");
      (void)recorder.last_dump();
      (void)recorder.last_dump_reason();
      (void)recorder.recorded();
      (void)recorder.dropped();
      recorder.Clear();
      std::this_thread::yield();
    }
  });

  for (auto& thread : clients) thread.join();
  stop.store(true);
  poller.join();

  EXPECT_EQ(completed.load(), kThreads * kQueriesPerThread);
  if (obs::kEnabled) {
    // The poller observed live traffic (Clear() rewinds, so only the
    // drained running total proves events flowed through).
    EXPECT_GT(drained.load() + obs::FlightRecorder::Global().recorded(),
              0u);
  }
}

TEST(ShardStressTest, BareSearcherSharedAcrossThreads) {
  Fixture f = MakeFixture();
  std::atomic<size_t> failures{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 20; ++i) {
        const size_t qi = (t + i) % f.queries.size();
        auto r = f.searcher->KNearestNeighbors(f.queries[qi], 5);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (*r != f.expected[qi]) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace iq
