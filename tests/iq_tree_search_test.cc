#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "scan/seq_scan.h"

namespace iq {
namespace {

struct SearchCase {
  const char* name;
  size_t n;
  size_t dims;
  Metric metric;
  bool optimized_access;
  bool quantize;
};

// Without this, gtest prints the case as a raw byte dump whose first
// bytes are the `name` pointer, so the listed test name would change
// with every load address.
void PrintTo(const SearchCase& c, std::ostream* os) { *os << c.name; }

class IqSearchCorrectness : public ::testing::TestWithParam<SearchCase> {};

/// Ground truth via brute force over the dataset.
std::vector<Neighbor> BruteForceKnn(const Dataset& data, PointView q,
                                    size_t k, Metric metric) {
  std::vector<Neighbor> all;
  all.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    all.push_back(Neighbor{static_cast<PointId>(i),
                           Distance(q, data[i], metric)});
  }
  std::sort(all.begin(), all.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

TEST_P(IqSearchCorrectness, KnnMatchesBruteForce) {
  const SearchCase c = GetParam();
  const Dataset all = GenerateCadLike(c.n + 20, c.dims, 42);
  Dataset data = all;
  const Dataset queries = data.TakeTail(20);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  IqTree::Options options;
  options.metric = c.metric;
  options.quantize = c.quantize;
  auto tree = IqTree::Build(data, storage, "t", disk, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  IqSearchOptions search;
  search.optimized_access = c.optimized_access;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (size_t k : {1u, 5u}) {
      const auto expected = BruteForceKnn(data, queries[qi], k, c.metric);
      auto got = (*tree)->KNearestNeighbors(queries[qi], k, search);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        // Distances must match exactly (ids may differ on ties).
        EXPECT_NEAR((*got)[i].distance, expected[i].distance, 1e-6)
            << c.name << " query " << qi << " k=" << k << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, IqSearchCorrectness,
    ::testing::Values(
        SearchCase{"l2_opt_quant", 3000, 8, Metric::kL2, true, true},
        SearchCase{"l2_std_quant", 3000, 8, Metric::kL2, false, true},
        SearchCase{"lmax_opt_quant", 3000, 8, Metric::kLMax, true, true},
        SearchCase{"l2_opt_noquant", 3000, 8, Metric::kL2, true, false},
        SearchCase{"l2_opt_highdim", 2000, 16, Metric::kL2, true, true},
        SearchCase{"l2_opt_lowdim", 3000, 2, Metric::kL2, true, true}),
    [](const ::testing::TestParamInfo<SearchCase>& param) {
      return param.param.name;
    });

TEST(IqRangeSearchTest, MatchesBruteForce) {
  Dataset data = GenerateWeatherLike(4000, 9, 13);
  const Dataset queries = data.TakeTail(10);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  auto tree = IqTree::Build(data, storage, "t", disk, {});
  ASSERT_TRUE(tree.ok());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (double radius : {0.0, 0.05, 0.2, 0.8}) {
      std::set<PointId> expected;
      for (size_t i = 0; i < data.size(); ++i) {
        if (Distance(queries[qi], data[i], Metric::kL2) <= radius) {
          expected.insert(static_cast<PointId>(i));
        }
      }
      auto got = (*tree)->RangeSearch(queries[qi], radius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::set<PointId> got_ids;
      double prev = -1.0;
      for (const Neighbor& r : *got) {
        got_ids.insert(r.id);
        EXPECT_GE(r.distance, prev);  // ascending
        prev = r.distance;
        EXPECT_LE(r.distance, radius + 1e-9);
      }
      EXPECT_EQ(got_ids, expected) << "radius " << radius;
    }
  }
}

TEST(IqWindowQueryTest, MatchesBruteForce) {
  Dataset data = GenerateUniform(5000, 4, 21);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  auto tree = IqTree::Build(data, storage, "t", disk, {});
  ASSERT_TRUE(tree.ok());
  const Mbr windows[] = {
      Mbr::FromBounds({0.1f, 0.1f, 0.1f, 0.1f}, {0.3f, 0.4f, 0.9f, 0.2f}),
      Mbr::FromBounds({0, 0, 0, 0}, {1, 1, 1, 1}),
      Mbr::FromBounds({0.9f, 0.9f, 0.9f, 0.9f}, {0.91f, 0.91f, 0.91f, 0.91f}),
  };
  for (const Mbr& window : windows) {
    std::set<PointId> expected;
    for (size_t i = 0; i < data.size(); ++i) {
      if (window.Contains(data[i])) expected.insert(static_cast<PointId>(i));
    }
    auto got = (*tree)->WindowQuery(window);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::set<PointId>(got->begin(), got->end()), expected);
  }
}

// Golden window answers: each window's ids in returned (page) order and
// its own I/O, pinned bitwise on the MatchesBruteForce index.
TEST(IqWindowQueryTest, PageOrderAndIoAreUnchanged) {
  Dataset data = GenerateUniform(5000, 4, 21);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  auto tree = IqTree::Build(data, storage, "t", disk, {});
  ASSERT_TRUE(tree.ok());
  struct Golden {
    Mbr window;
    size_t count;
    uint64_t digest;  // FNV-1a over the ids in returned order
    uint64_t seeks;
    uint64_t blocks_read;
    uint64_t io_time_bits;
  };
  const Golden goldens[] = {
      {Mbr::FromBounds({0.1f, 0.1f, 0.1f, 0.1f}, {0.3f, 0.4f, 0.9f, 0.2f}),
       27, 0xe16a95341adbe066ull, 4, 15, 0x3fb1eb851eb851ecull},
      {Mbr::FromBounds({0, 0, 0, 0}, {1, 1, 1, 1}), 5000,
       0x2059c412c407cd8dull, 12, 69, 0x3fd083126e978d51ull},
      {Mbr::FromBounds({0.9f, 0.9f, 0.9f, 0.9f},
                       {0.91f, 0.91f, 0.91f, 0.91f}),
       0, 0xcbf29ce484222325ull, 2, 2, 0x3f989374bc6a7efaull},
  };
  for (const Golden& golden : goldens) {
    obs::QueryTracer tracer;
    IqQueryStats stats;
    IqSearchOptions options;
    options.tracer = &tracer;
    options.stats = &stats;
    auto got = (*tree)->WindowQuery(golden.window, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    uint64_t digest = 14695981039346656037ull;
    for (PointId id : *got) {
      digest ^= id;
      digest *= 1099511628211ull;
    }
    EXPECT_EQ(got->size(), golden.count);
    EXPECT_EQ(digest, golden.digest);
    EXPECT_EQ(stats.io.seeks, golden.seeks);
    EXPECT_EQ(stats.io.blocks_read, golden.blocks_read);
    EXPECT_EQ(std::bit_cast<uint64_t>(stats.io.io_time_s),
              golden.io_time_bits);
    // The query's own record: its level split adds up to its I/O, and
    // its spans agree with its counters.
    EXPECT_EQ(stats.observed.t1 + stats.observed.t2 + stats.observed.t3,
              stats.io.io_time_s);
    EXPECT_GT(stats.observed.t1, 0.0);
    EXPECT_EQ(stats.cells_enqueued, 0u);
    if (!obs::kEnabled) continue;
    const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
    EXPECT_EQ(obs::AggregateSpans(spans, "window", nullptr), 1.0);
    EXPECT_EQ(obs::AggregateSpans(spans, "page", nullptr),
              static_cast<double>(stats.pages_decoded));
    EXPECT_EQ(obs::AggregateSpans(spans, "batch", nullptr),
              static_cast<double>(stats.batches));
    EXPECT_EQ(obs::AggregateSpans(spans, "batch", "blocks"),
              static_cast<double>(stats.blocks_transferred));
    EXPECT_EQ(obs::AggregateSpans(spans, "exact_page", "refinements"),
              static_cast<double>(stats.refinements));
    EXPECT_EQ(obs::AggregateSpans(spans, "dir_scan", "io_s"),
              stats.observed.t1);
    EXPECT_EQ(obs::AggregateSpans(spans, "batch", "io_s"), stats.observed.t2);
    EXPECT_EQ(obs::AggregateSpans(spans, "exact_page", "io_s"),
              stats.observed.t3);
  }
  // The first window's ids in full.
  auto first = (*tree)->WindowQuery(goldens[0].window);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first,
            (std::vector<PointId>{2639, 1512, 3848, 2840, 1491, 4736, 3548,
                                  4683, 892,  3923, 1669, 4175, 3264, 917,
                                  4522, 330,  1785, 2761, 4904, 4443, 3288,
                                  1548, 3307, 3130, 3938, 1795, 873}));
}

TEST(IqSearchIoTest, OptimizedAccessUsesFewerSeeks) {
  // The whole point of §2: batching neighboring pages trades seeks for
  // transfers. On a sizeable high-dimensional index the optimized
  // strategy must issue noticeably fewer seeks.
  Dataset data = GenerateUniform(30000, 16, 31);
  const Dataset queries = data.TakeTail(10);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 4096});
  auto tree = IqTree::Build(data, storage, "t", disk, {});
  ASSERT_TRUE(tree.ok());

  auto run = [&](bool optimized) {
    disk.ResetStats();
    IqSearchOptions search;
    search.optimized_access = optimized;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE((*tree)->NearestNeighbor(queries[i], search).ok());
    }
    return disk.stats();
  };
  const IoStats standard = run(false);
  const IoStats optimized = run(true);
  EXPECT_LT(optimized.seeks, standard.seeks);
  EXPECT_LT(optimized.io_time_s, standard.io_time_s);
}

TEST(IqSearchIoTest, QuantizationReadsFewerBlocksThanExactHighDim) {
  Dataset data = GenerateUniform(20000, 16, 33);
  const Dataset queries = data.TakeTail(10);
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 4096});
  IqTree::Options quantized;
  auto tree_q = IqTree::Build(data, storage, "q", disk, quantized);
  ASSERT_TRUE(tree_q.ok());
  IqTree::Options exact;
  exact.quantize = false;
  auto tree_e = IqTree::Build(data, storage, "e", disk, exact);
  ASSERT_TRUE(tree_e.ok());

  auto run = [&](IqTree& tree) {
    disk.ResetStats();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(tree.NearestNeighbor(queries[i]).ok());
    }
    return disk.stats().io_time_s;
  };
  const double with_quant = run(**tree_q);
  const double without = run(**tree_e);
  EXPECT_LT(with_quant, without);
}

// Non-finite queries are rejected before any page is touched: NaN
// compares false against every bound, so a NaN query used to decode the
// whole index and return no neighbours, and ±inf did the same.
class IqQueryValidationTest : public ::testing::Test {
 protected:
  IqQueryValidationTest() : disk_(DiskParameters{0.010, 0.002, 2048}) {
    auto tree = IqTree::Build(GenerateCadLike(2000, 4, 5), storage_, "t",
                              disk_, {});
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) tree_ = std::move(tree).value();
    disk_.ResetStats();
  }

  /// One finite query plus copies with a NaN, +inf and -inf coordinate.
  static std::vector<std::vector<float>> BadQueries() {
    const std::vector<float> good{0.4f, 0.5f, 0.6f, 0.5f};
    std::vector<std::vector<float>> bad;
    for (float x : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
      bad.push_back(good);
      bad.back()[2] = x;
    }
    return bad;
  }

  MemoryStorage storage_;
  DiskModel disk_;
  std::unique_ptr<IqTree> tree_;
};

TEST_F(IqQueryValidationTest, NearestNeighborRejectsNonFiniteQuery) {
  ASSERT_NE(tree_, nullptr);
  for (const std::vector<float>& q : BadQueries()) {
    EXPECT_TRUE(tree_->NearestNeighbor(q).status().IsInvalidArgument());
  }
  EXPECT_EQ(disk_.stats().io_time_s, 0.0);
}

TEST_F(IqQueryValidationTest, KNearestNeighborsRejectsNonFiniteQuery) {
  ASSERT_NE(tree_, nullptr);
  for (const std::vector<float>& q : BadQueries()) {
    for (bool optimized : {true, false}) {
      IqSearchOptions search;
      search.optimized_access = optimized;
      EXPECT_TRUE(
          tree_->KNearestNeighbors(q, 10, search).status().IsInvalidArgument());
    }
  }
  EXPECT_EQ(disk_.stats().io_time_s, 0.0);
}

TEST_F(IqQueryValidationTest, RangeSearchRejectsNonFiniteQueryOrNaNRadius) {
  ASSERT_NE(tree_, nullptr);
  for (const std::vector<float>& q : BadQueries()) {
    EXPECT_TRUE(tree_->RangeSearch(q, 0.1).status().IsInvalidArgument());
  }
  const std::vector<float> good{0.4f, 0.5f, 0.6f, 0.5f};
  EXPECT_TRUE(tree_->RangeSearch(good, std::nan("")).status()
                  .IsInvalidArgument());
  EXPECT_EQ(disk_.stats().io_time_s, 0.0);
  // +inf stays a valid radius: it selects every point.
  auto all = tree_->RangeSearch(good, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), tree_->size());
}

// Golden plan: the time-optimized search's page batches (§2.1) on a
// fixed CAD-like workload, pinned bitwise. Every query's QueryStats and
// simulated-disk charge (seeks, io_time_s) plus its results are folded
// into one FNV-1a digest; the totals make a mismatch readable. A change
// to the access probabilities (§2.2), the higher-priority set or the
// batching arithmetic moves at least one value. Pages reach the HS loop
// and the eq. 3 product in (MINDIST, dir_index) order. The CAD cases
// pin their layout with inputs the cost model does not decide (a fixed
// g and a given D_F), so a change to the §3.5 optimizer or the D_F
// estimator moves none of their values; the pruner-cap case gives D_F.
struct GoldenPlan {
  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  size_t batches = 0;
  size_t blocks_transferred = 0;
  size_t pages_decoded = 0;
  size_t cells_enqueued = 0;
  size_t refinements = 0;
  uint64_t seeks = 0;
  double io_time_s = 0.0;

  void Mix(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xFF;
      digest *= 1099511628211ull;  // FNV-1a prime
    }
  }
};

/// One golden workload: `points` points plus `queries` held-out tail
/// queries, d = 16, generator seed 77; the queries from `first_query`
/// on are run.
struct GoldenSetup {
  Metric metric = Metric::kL2;
  bool uniform = false;  // CAD-like otherwise
  size_t points = 30000;
  size_t queries = 200;
  size_t first_query = 0;
  /// Passed to the build; 0 estimates it from the data.
  double fractal_dimension = 0.0;
  /// Passed to the build; 0 lets the §3.5 optimizer choose every g.
  unsigned fixed_quant_bits = 0;
  DiskParameters disk{0.010, 0.002, 4096};
};

GoldenPlan RunGoldenPlan(const GoldenSetup& setup) {
  const size_t total = setup.points + setup.queries;
  Dataset data = setup.uniform ? GenerateUniform(total, 16, 77)
                               : GenerateCadLike(total, 16, 77);
  const Dataset queries = data.TakeTail(setup.queries);
  MemoryStorage storage;
  DiskModel disk(setup.disk);
  IqTree::Options options;
  options.metric = setup.metric;
  options.optimize_for_k = 10;
  options.fractal_dimension = setup.fractal_dimension;
  options.fixed_quant_bits = setup.fixed_quant_bits;
  auto tree = IqTree::Build(data, storage, "t", disk, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  GoldenPlan plan;
  if (!tree.ok()) return plan;
  for (size_t qi = setup.first_query; qi < queries.size(); ++qi) {
    IqQueryStats stats;
    IqSearchOptions search;
    search.optimized_access = true;
    search.stats = &stats;
    auto got = (*tree)->KNearestNeighbors(queries[qi], 10, search);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) return plan;
    const IoStats& io = stats.io;
    for (uint64_t word :
         {uint64_t{stats.batches}, uint64_t{stats.blocks_transferred},
          uint64_t{stats.pages_decoded}, uint64_t{stats.cells_enqueued},
          uint64_t{stats.refinements}, io.seeks,
          std::bit_cast<uint64_t>(io.io_time_s)}) {
      plan.Mix(word);
    }
    for (const Neighbor& n : *got) {
      plan.Mix(n.id);
      plan.Mix(std::bit_cast<uint64_t>(n.distance));
    }
    plan.batches += stats.batches;
    plan.blocks_transferred += stats.blocks_transferred;
    plan.pages_decoded += stats.pages_decoded;
    plan.cells_enqueued += stats.cells_enqueued;
    plan.refinements += stats.refinements;
    plan.seeks += io.seeks;
    plan.io_time_s += io.io_time_s;
  }
  return plan;
}

void ExpectGoldenPlan(const GoldenPlan& got, const GoldenPlan& want) {
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.blocks_transferred, want.blocks_transferred);
  EXPECT_EQ(got.pages_decoded, want.pages_decoded);
  EXPECT_EQ(got.cells_enqueued, want.cells_enqueued);
  EXPECT_EQ(got.refinements, want.refinements);
  EXPECT_EQ(got.seeks, want.seeks);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.io_time_s),
            std::bit_cast<uint64_t>(want.io_time_s))
      << got.io_time_s << " vs " << want.io_time_s;
  EXPECT_EQ(got.digest, want.digest);
}

TEST(IqSearchGoldenPlanTest, L2KnnPlansAreUnchanged) {
  GoldenPlan want;
  want.batches = 386;
  want.blocks_transferred = 5835;
  want.pages_decoded = 5809;
  want.cells_enqueued = 1476210;
  want.refinements = 2996;
  want.seeks = 3409;
  want.io_time_s = 0x1.aeac083126e95p+5;
  want.digest = 0xb19f17d388947f54ull;
  ExpectGoldenPlan(RunGoldenPlan({.metric = Metric::kL2,
                                  .fractal_dimension = 3.0,
                                  .fixed_quant_bits = 8}),
                   want);
}

TEST(IqSearchGoldenPlanTest, LMaxKnnPlansAreUnchanged) {
  GoldenPlan want;
  want.batches = 255;
  want.blocks_transferred = 7645;
  want.pages_decoded = 7644;
  want.cells_enqueued = 1945503;
  want.refinements = 2445;
  want.seeks = 2728;
  want.io_time_s = 0x1.8c2d0e560418ep+5;
  want.digest = 0x128e64619eebf3b7ull;
  ExpectGoldenPlan(RunGoldenPlan({.metric = Metric::kLMax,
                                  .fractal_dimension = 3.0,
                                  .fixed_quant_bits = 8}),
                   want);
}

// Uniform data, 200k points, with a small fractal dimension and the
// default disk: the optimizer stores every page exact (3104 pages), and
// a 16-d kNN ball reaches so many of them that some candidates' eq. 3
// product is still above the floor after kMaxPrunerRegions (512)
// unprocessed pages of smaller MINDIST, so the cap decides their access
// probability. Of the 107 held-out queries only the last 10 run; the
// last of them (tail query 106) gets a different plan when the cap is
// raised to 600 or more or lowered to 450. D_F is passed explicitly so
// that a change to the estimator does not move the layout. g is left to
// the optimizer: a fixed g = 32 partitions into different pages and
// changes these values.
TEST(IqSearchGoldenPlanTest, L2KnnPlansAtThePrunerCapAreUnchanged) {
  GoldenPlan want;
  want.batches = 2164;
  want.blocks_transferred = 18814;
  want.pages_decoded = 15688;
  want.cells_enqueued = 0;
  want.refinements = 0;
  want.seeks = 2174;
  want.io_time_s = 0x1.e4b43958105dcp+5;
  want.digest = 0xcfa3698ec1e5d769ull;
  ExpectGoldenPlan(RunGoldenPlan({.metric = Metric::kL2,
                                  .uniform = true,
                                  .points = 200000,
                                  .queries = 107,
                                  .first_query = 97,
                                  .fractal_dimension = 0.1,
                                  .disk = DiskParameters{}}),
                   want);
}

// Golden pop order: the sequence in which the HS loop (§2.2) refines cell
// approximations (§3.2), pinned through the `refine` spans' (dir_index,
// slot) values, plus every query's IqQueryStats (its own I/O included)
// and answers. A uniform 16-d tree at a fixed g = 8 over data with many
// duplicates and grid-snapped coordinates: duplicates tie their lower
// bounds inside a page, and pages with equal MBR sides tie them across
// pages, so the (mindist, dir_index, slot) tie-break decides the order.
// k = N refines every cell, popping each page's candidates to the end.
struct PopOrderGolden {
  uint64_t refine_digest = 14695981039346656037ull;  // FNV-1a offset basis
  uint64_t stats_digest = 14695981039346656037ull;
  size_t refinements = 0;
  size_t cells_enqueued = 0;
  uint64_t seeks = 0;

  static void Mix(uint64_t* digest, uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      *digest ^= (word >> (8 * byte)) & 0xFF;
      *digest *= 1099511628211ull;  // FNV-1a prime
    }
  }
};

/// 600 grid points (coordinates snapped to multiples of 1/4) stored five
/// times each, then 1000 uniform points: N = 4000.
Dataset TiedUniformData() {
  const Dataset grid = GenerateUniform(600, 16, 91);
  const Dataset spread = GenerateUniform(1000, 16, 92);
  std::vector<float> values;
  for (int copy = 0; copy < 5; ++copy) {
    for (size_t i = 0; i < grid.size(); ++i) {
      for (float x : grid[i]) values.push_back(std::round(x * 4.0f) / 4.0f);
    }
  }
  for (size_t i = 0; i < spread.size(); ++i) {
    for (float x : spread[i]) values.push_back(x);
  }
  return Dataset(16, std::move(values));
}

PopOrderGolden RunPopOrderGolden(bool optimized_access) {
  const Dataset data = TiedUniformData();
  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});
  IqTree::Options options;
  options.fixed_quant_bits = 8;
  auto tree = IqTree::Build(data, storage, "t", disk, options);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  auto scan = SeqScan::Build(data, storage, "s", disk, {});
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  PopOrderGolden golden;
  if (!tree.ok() || !scan.ok()) return golden;
  // Queries: four stored grid points (lower bound 0 in every page whose
  // cells hold them) and four points off the data.
  std::vector<std::vector<float>> queries;
  for (size_t row : {0u, 7u, 1801u, 2999u}) {
    queries.emplace_back(data[row].begin(), data[row].end());
  }
  const Dataset off = GenerateUniform(4, 16, 93);
  for (size_t i = 0; i < off.size(); ++i) {
    queries.emplace_back(off[i].begin(), off[i].end());
  }
  for (const std::vector<float>& q : queries) {
    for (size_t k : {size_t{1}, size_t{10}, size_t{500}, data.size()}) {
      obs::QueryTracer tracer;
      IqQueryStats stats;
      IqSearchOptions search;
      search.optimized_access = optimized_access;
      search.tracer = &tracer;
      search.stats = &stats;
      auto got = (*tree)->KNearestNeighbors(q, k, search);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok()) return golden;
      auto want = (*scan)->KNearestNeighbors(q, k);
      EXPECT_TRUE(want.ok()) << want.status().ToString();
      if (!want.ok()) return golden;
      EXPECT_EQ(got->size(), want->size()) << "k=" << k;
      for (size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>((*got)[i].distance),
                  std::bit_cast<uint64_t>((*want)[i].distance))
            << "k=" << k << " rank " << i;
        EXPECT_EQ((*got)[i].distance,
                  Distance(q, data[(*got)[i].id], Metric::kL2));
      }
      EXPECT_EQ(tracer.dropped(), 0u);
      for (const obs::SpanRecord& span : tracer.Snapshot()) {
        if (span.name != "refine") continue;
        for (const auto& [key, value] : span.attrs) {
          if (key != "dir_index" && key != "slot") continue;
          PopOrderGolden::Mix(&golden.refine_digest,
                              static_cast<uint64_t>(value));
        }
      }
      for (uint64_t word :
           {uint64_t{stats.pages_decoded}, uint64_t{stats.blocks_transferred},
            uint64_t{stats.batches}, uint64_t{stats.refinements},
            uint64_t{stats.cells_enqueued}, stats.io.seeks,
            stats.io.blocks_read, std::bit_cast<uint64_t>(stats.io.io_time_s),
            std::bit_cast<uint64_t>(stats.observed.t1),
            std::bit_cast<uint64_t>(stats.observed.t2),
            std::bit_cast<uint64_t>(stats.observed.t3)}) {
        PopOrderGolden::Mix(&golden.stats_digest, word);
      }
      for (const Neighbor& n : *got) {
        PopOrderGolden::Mix(&golden.stats_digest, n.id);
        PopOrderGolden::Mix(&golden.stats_digest,
                            std::bit_cast<uint64_t>(n.distance));
      }
      golden.refinements += stats.refinements;
      golden.cells_enqueued += stats.cells_enqueued;
      golden.seeks += stats.io.seeks;
    }
  }
  return golden;
}

void ExpectPopOrderGolden(const PopOrderGolden& got,
                          const PopOrderGolden& want) {
  EXPECT_EQ(got.refinements, want.refinements);
  EXPECT_EQ(got.cells_enqueued, want.cells_enqueued);
  EXPECT_EQ(got.seeks, want.seeks);
  EXPECT_EQ(got.stats_digest, want.stats_digest);
  // Spans exist only with observability compiled in.
  if (obs::kEnabled) {
    EXPECT_EQ(got.refine_digest, want.refine_digest);
  }
}

TEST(IqSearchPopOrderGoldenTest, OptimizedAccessRefinesInTheSameOrder) {
  PopOrderGolden want;
  want.refinements = 36328;
  want.cells_enqueued = 127239;
  want.seeks = 30593;
  want.stats_digest = 0x7b3e302ede355007ull;
  want.refine_digest = 0x77690714008eff03ull;
  ExpectPopOrderGolden(RunPopOrderGolden(/*optimized_access=*/true), want);
}

TEST(IqSearchPopOrderGoldenTest, StandardAccessRefinesInTheSameOrder) {
  PopOrderGolden want;
  want.refinements = 36328;
  want.cells_enqueued = 112889;
  want.seeks = 31402;
  want.stats_digest = 0xfb56d83d099201ecull;
  want.refine_digest = 0x77690714008eff03ull;
  ExpectPopOrderGolden(RunPopOrderGolden(/*optimized_access=*/false), want);
}

}  // namespace
}  // namespace iq
