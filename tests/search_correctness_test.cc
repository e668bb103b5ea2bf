// Cross-structure correctness matrix: every index in the library
// (IQ-tree, X-tree, VA-file) must return *identical exact distances* to
// the sequential scan on every workload the paper evaluates, across
// metrics, dimensions and seeds. This is the end-to-end guarantee that
// quantization, scheduling and pruning never trade correctness for
// speed.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/iq_tree.h"
#include "data/generators.h"
#include "scan/seq_scan.h"
#include "vafile/va_file.h"
#include "xtree/x_tree.h"

namespace iq {
namespace {

enum class Workload { kUniform, kCad, kColor, kWeather };

struct MatrixCase {
  Workload workload;
  size_t dims;
  Metric metric;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name;
  switch (info.param.workload) {
    case Workload::kUniform:
      name = "Uniform";
      break;
    case Workload::kCad:
      name = "Cad";
      break;
    case Workload::kColor:
      name = "Color";
      break;
    case Workload::kWeather:
      name = "Weather";
      break;
  }
  name += std::to_string(info.param.dims);
  name += info.param.metric == Metric::kL2 ? "L2" : "LMax";
  name += "Seed" + std::to_string(info.param.seed);
  return name;
}

Dataset MakeWorkload(Workload workload, size_t n, size_t dims,
                     uint64_t seed) {
  switch (workload) {
    case Workload::kUniform:
      return GenerateUniform(n, dims, seed);
    case Workload::kCad:
      return GenerateCadLike(n, dims, seed);
    case Workload::kColor:
      return GenerateColorLike(n, dims, seed);
    case Workload::kWeather:
      return GenerateWeatherLike(n, dims, seed);
  }
  return Dataset(dims);
}

class SearchMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SearchMatrix, AllStructuresAgreeWithScan) {
  const MatrixCase c = GetParam();
  Dataset data = MakeWorkload(c.workload, 2512, c.dims, c.seed);
  const Dataset queries = data.TakeTail(12);

  MemoryStorage storage;
  DiskModel disk(DiskParameters{0.010, 0.002, 2048});

  SeqScan::Options scan_options;
  scan_options.metric = c.metric;
  auto scan = SeqScan::Build(data, storage, "s", disk, scan_options);
  ASSERT_TRUE(scan.ok());

  IqTree::Options iq_options;
  iq_options.metric = c.metric;
  auto iq = IqTree::Build(data, storage, "iq", disk, iq_options);
  ASSERT_TRUE(iq.ok()) << iq.status().ToString();

  XTree::Options x_options;
  x_options.metric = c.metric;
  auto xtree = XTree::Build(data, storage, "x", disk, x_options);
  ASSERT_TRUE(xtree.ok());

  VaFile::Options va_options;
  va_options.metric = c.metric;
  va_options.bits_per_dim = 4;
  auto va = VaFile::Build(data, storage, "va", disk, va_options);
  ASSERT_TRUE(va.ok());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const size_t k = 1 + qi % 4;  // k in 1..4
    auto truth = (*scan)->KNearestNeighbors(queries[qi], k);
    ASSERT_TRUE(truth.ok());
    auto iq_got = (*iq)->KNearestNeighbors(queries[qi], k);
    ASSERT_TRUE(iq_got.ok()) << iq_got.status().ToString();
    auto x_got = (*xtree)->KNearestNeighbors(queries[qi], k);
    ASSERT_TRUE(x_got.ok());
    auto va_got = (*va)->KNearestNeighbors(queries[qi], k);
    ASSERT_TRUE(va_got.ok());
    ASSERT_EQ(truth->size(), k);
    ASSERT_EQ(iq_got->size(), k);
    ASSERT_EQ(x_got->size(), k);
    ASSERT_EQ(va_got->size(), k);
    for (size_t i = 0; i < k; ++i) {
      const double expected = (*truth)[i].distance;
      EXPECT_NEAR((*iq_got)[i].distance, expected, 1e-6)
          << "IQ-tree rank " << i << " query " << qi;
      EXPECT_NEAR((*x_got)[i].distance, expected, 1e-6)
          << "X-tree rank " << i << " query " << qi;
      EXPECT_NEAR((*va_got)[i].distance, expected, 1e-6)
          << "VA-file rank " << i << " query " << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SearchMatrix,
    ::testing::Values(
        MatrixCase{Workload::kUniform, 4, Metric::kL2, 1},
        MatrixCase{Workload::kUniform, 16, Metric::kL2, 2},
        MatrixCase{Workload::kUniform, 8, Metric::kLMax, 3},
        MatrixCase{Workload::kCad, 16, Metric::kL2, 4},
        MatrixCase{Workload::kColor, 16, Metric::kL2, 5},
        MatrixCase{Workload::kWeather, 9, Metric::kL2, 6},
        MatrixCase{Workload::kWeather, 9, Metric::kLMax, 7}),
    CaseName);

}  // namespace
}  // namespace iq
