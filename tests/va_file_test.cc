#include "vafile/va_file.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace iq {
namespace {

class VaFileTest : public ::testing::TestWithParam<unsigned> {
 protected:
  VaFileTest() : disk_(DiskParameters{0.010, 0.002, 4096}) {}

  MemoryStorage storage_;
  DiskModel disk_;
};

TEST_P(VaFileTest, KnnMatchesBruteForce) {
  const unsigned bits = GetParam();
  Dataset data = GenerateColorLike(2000, 8, 3);
  const Dataset queries = data.TakeTail(15);
  VaFile::Options options;
  options.bits_per_dim = bits;
  auto va = VaFile::Build(data, storage_, "va", disk_, options);
  ASSERT_TRUE(va.ok()) << va.status().ToString();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<double> dists;
    for (size_t i = 0; i < data.size(); ++i) {
      dists.push_back(Distance(queries[qi], data[i], Metric::kL2));
    }
    std::sort(dists.begin(), dists.end());
    auto got = (*va)->KNearestNeighbors(queries[qi], 5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR((*got)[i].distance, dists[i], 1e-6)
          << "bits=" << bits << " query " << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitSettings, VaFileTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST_F(VaFileTest, MoreBitsVisitFewerVectors) {
  Dataset data = GenerateUniform(5000, 8, 5);
  const Dataset queries = data.TakeTail(5);
  double fractions[2];
  int slot = 0;
  for (unsigned bits : {2u, 8u}) {
    VaFile::Options options;
    options.bits_per_dim = bits;
    auto va = VaFile::Build(data, storage_, "va", disk_, options);
    ASSERT_TRUE(va.ok());
    double total = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ASSERT_TRUE((*va)->NearestNeighbor(queries[qi]).ok());
      total += (*va)->last_visit_fraction();
    }
    fractions[slot++] = total / queries.size();
  }
  EXPECT_LT(fractions[1], fractions[0]);
}

TEST_F(VaFileTest, RangeSearchMatchesBruteForce) {
  Dataset data = GenerateUniform(2000, 4, 7);
  const Dataset queries = data.TakeTail(5);
  VaFile::Options options;
  options.bits_per_dim = 4;
  auto va = VaFile::Build(data, storage_, "va", disk_, options);
  ASSERT_TRUE(va.ok());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const double radius = 0.25;
    size_t expected = 0;
    for (size_t i = 0; i < data.size(); ++i) {
      if (Distance(queries[qi], data[i], Metric::kL2) <= radius) ++expected;
    }
    auto got = (*va)->RangeSearch(queries[qi], radius);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), expected);
  }
}

TEST_F(VaFileTest, FlushOpenRoundTrip) {
  Dataset data = GenerateUniform(1000, 6, 9);
  {
    VaFile::Options options;
    options.bits_per_dim = 5;
    auto va = VaFile::Build(data, storage_, "va", disk_, options);
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE((*va)->Flush().ok());
  }
  auto reopened = VaFile::Open(storage_, "va", disk_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 1000u);
  EXPECT_EQ((*reopened)->bits_per_dim(), 5u);
  auto nn = (*reopened)->NearestNeighbor(data[123]);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 123u);
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(VaFileTest, InsertAppends) {
  Dataset data = GenerateUniform(500, 4, 11);
  VaFile::Options options;
  auto va = VaFile::Build(data, storage_, "va", disk_, options);
  ASSERT_TRUE(va.ok());
  const std::vector<float> p{0.11f, 0.22f, 0.33f, 0.44f};
  ASSERT_TRUE((*va)->Insert(p).ok());
  EXPECT_EQ((*va)->size(), 501u);
  auto nn = (*va)->NearestNeighbor(p);
  ASSERT_TRUE(nn.ok());
  EXPECT_EQ(nn->id, 500u);
  EXPECT_EQ(nn->distance, 0.0);
}

TEST_F(VaFileTest, InsertOutsideDomainRejected) {
  Dataset data = GenerateUniform(100, 3, 13);
  auto va = VaFile::Build(data, storage_, "va", disk_, {});
  ASSERT_TRUE(va.ok());
  const std::vector<float> outside{2.0f, 0.5f, 0.5f};
  EXPECT_TRUE((*va)->Insert(outside).IsInvalidArgument());
}

TEST_F(VaFileTest, ScanCostIndependentOfQuery) {
  // The approximation scan dominates and costs the same for every query
  // — the linear-scan character the paper contrasts with the IQ-tree.
  Dataset data = GenerateUniform(20000, 16, 15);
  const Dataset queries = data.TakeTail(3);
  auto va = VaFile::Build(data, storage_, "va", disk_, {});
  ASSERT_TRUE(va.ok());
  std::vector<double> times;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    disk_.ResetStats();
    ASSERT_TRUE((*va)->NearestNeighbor(queries[qi]).ok());
    times.push_back(disk_.stats().io_time_s);
  }
  const double spread = *std::max_element(times.begin(), times.end()) -
                        *std::min_element(times.begin(), times.end());
  EXPECT_LT(spread, 0.5 * times[0]);
}

TEST_F(VaFileTest, WindowQueryMatchesBruteForce) {
  Dataset data = GenerateUniform(3000, 4, 17);
  VaFile::Options options;
  options.bits_per_dim = 4;
  auto va = VaFile::Build(data, storage_, "va", disk_, options);
  ASSERT_TRUE(va.ok());
  const Mbr windows[] = {
      Mbr::FromBounds({0.2f, 0.1f, 0.0f, 0.5f}, {0.6f, 0.9f, 0.4f, 0.8f}),
      Mbr::FromBounds({0, 0, 0, 0}, {1, 1, 1, 1}),
      Mbr::FromBounds({0.5f, 0.5f, 0.5f, 0.5f}, {0.5f, 0.5f, 0.5f, 0.5f}),
  };
  for (const Mbr& window : windows) {
    std::vector<PointId> expected;
    for (size_t i = 0; i < data.size(); ++i) {
      if (window.Contains(data[i])) {
        expected.push_back(static_cast<PointId>(i));
      }
    }
    auto got = (*va)->WindowQuery(window);
    ASSERT_TRUE(got.ok());
    std::sort(got->begin(), got->end());
    EXPECT_EQ(*got, expected);
  }
  // Fully contained cells skip the exact lookup: the visit fraction on
  // the whole-domain window is zero.
  ASSERT_TRUE((*va)->WindowQuery(windows[1]).ok());
  EXPECT_EQ((*va)->last_visit_fraction(), 0.0);
}

TEST_F(VaFileTest, RejectsBadBits) {
  Dataset data = GenerateUniform(10, 2, 1);
  VaFile::Options options;
  options.bits_per_dim = 0;
  EXPECT_TRUE(VaFile::Build(data, storage_, "va", disk_, options)
                  .status()
                  .IsInvalidArgument());
  options.bits_per_dim = 17;
  EXPECT_TRUE(VaFile::Build(data, storage_, "va", disk_, options)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace iq
