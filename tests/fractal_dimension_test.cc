#include "fractal/fractal_dimension.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace iq {
namespace {

TEST(FractalDimensionTest, UniformIsNearEmbeddingDimension) {
  for (size_t d : {2u, 4u}) {
    const Dataset data = GenerateUniform(30000, d, 13);
    const FractalEstimate est =
        EstimateCorrelationDimension(data.data(), data.size(), d);
    EXPECT_GT(est.dimension, 0.8 * static_cast<double>(d)) << "d=" << d;
    EXPECT_LE(est.dimension, static_cast<double>(d) + 1e-9);
    EXPECT_GT(est.fit_r2, 0.95);
  }
}

TEST(FractalDimensionTest, LineInHighDimIsNearOne) {
  // Points along a 1-d curve embedded in 6 dims.
  const Dataset data = GenerateManifold(30000, 6, 1, 0.0, 3);
  const FractalEstimate est =
      EstimateCorrelationDimension(data.data(), data.size(), 6);
  EXPECT_LT(est.dimension, 2.0);
  EXPECT_GT(est.dimension, 0.5);
}

TEST(FractalDimensionTest, PlaneInHighDimIsNearTwo) {
  // Points on a 2-d manifold embedded in 5 dims: D2 is 2 up to the
  // estimator's bias.
  const Dataset data = GenerateManifold(30000, 5, 2, 0.0, 9);
  const FractalEstimate est =
      EstimateCorrelationDimension(data.data(), data.size(), 5);
  EXPECT_NEAR(est.dimension, 2.0, 0.2);
  EXPECT_GT(est.fit_r2, 0.95);
}

TEST(FractalDimensionTest, DegenerateInputsFallBack) {
  const Dataset data = GenerateUniform(1, 4, 1);
  const FractalEstimate est =
      EstimateCorrelationDimension(data.data(), data.size(), 4);
  EXPECT_DOUBLE_EQ(est.dimension, 4.0);
}

TEST(FractalDimensionTest, IdenticalPointsDoNotCrash) {
  Dataset data(3);
  for (int i = 0; i < 100; ++i) data.Append(std::vector<float>{1, 2, 3});
  const FractalEstimate est =
      EstimateCorrelationDimension(data.data(), data.size(), 3);
  EXPECT_GT(est.dimension, 0.0);
  EXPECT_LE(est.dimension, 3.0);
}

TEST(FractalDimensionTest, SubsamplingIsStable) {
  const Dataset data = GenerateManifold(60000, 6, 3, 0.01, 21);
  FractalOptions small;
  small.max_sample = 5000;
  FractalOptions large;
  large.max_sample = 50000;
  const double with_small =
      EstimateCorrelationDimension(data.data(), data.size(), 6, small)
          .dimension;
  const double with_large =
      EstimateCorrelationDimension(data.data(), data.size(), 6, large)
          .dimension;
  EXPECT_NEAR(with_small, with_large, 1.0);
}

}  // namespace
}  // namespace iq
