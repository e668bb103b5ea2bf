#include "costmodel/access_probability.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace iq {
namespace {

TEST(IntersectionFractionTest, FullContainment) {
  // Ball so large it covers the whole box: fraction 1 (L-max).
  const Mbr box = Mbr::FromBounds({0, 0}, {1, 1});
  const std::vector<float> q{0.5f, 0.5f};
  EXPECT_NEAR(IntersectionFraction(q, 10.0, box, Metric::kLMax), 1.0, 1e-9);
}

TEST(IntersectionFractionTest, Disjoint) {
  const Mbr box = Mbr::FromBounds({0, 0}, {1, 1});
  const std::vector<float> q{5.0f, 5.0f};
  EXPECT_EQ(IntersectionFraction(q, 0.5, box, Metric::kLMax), 0.0);
  EXPECT_EQ(IntersectionFraction(q, 0.0, box, Metric::kLMax), 0.0);
}

TEST(IntersectionFractionTest, HalfOverlap) {
  // Ball [0.5, 1.5]^1 over box [0,1]: covers half.
  const Mbr box = Mbr::FromBounds({0}, {1});
  const std::vector<float> q{1.0f};
  EXPECT_NEAR(IntersectionFraction(q, 0.5, box, Metric::kLMax), 0.5, 1e-9);
}

TEST(IntersectionFractionTest, DegenerateSidesUseLimits) {
  // A point-box (all sides degenerate) inside the ball: fraction 1.
  const Mbr point_box = Mbr::FromBounds({0.5, 0.5}, {0.5, 0.5});
  const std::vector<float> q{0.4f, 0.4f};
  EXPECT_EQ(IntersectionFraction(q, 0.2, point_box, Metric::kLMax), 1.0);
  // Outside the ball: 0.
  EXPECT_EQ(IntersectionFraction(q, 0.05, point_box, Metric::kLMax), 0.0);
}

/// PageAccessProbability over a fixed region list, read in list order.
double AccessOver(PointView q, double target_mindist,
                  std::span<const PrunerRegion> regions, Metric metric,
                  double floor = 1e-6) {
  size_t next = 0;
  return PageAccessProbability(
      q, target_mindist,
      [&](PrunerRegion* region) {
        if (next == regions.size()) return false;
        *region = regions[next++];
        return true;
      },
      metric, floor);
}

TEST(PageAccessProbabilityTest, NoCompetitorsMeansCertainAccess) {
  const std::vector<float> q{0.5f, 0.5f};
  EXPECT_EQ(AccessOver(q, 0.3, {}, Metric::kLMax), 1.0);
}

TEST(PageAccessProbabilityTest, KnownCloserPointKillsAccess) {
  // A degenerate (exact point) region inside the target sphere makes
  // the access probability exactly 0.
  const std::vector<float> q{0.5f, 0.5f};
  const Mbr point_box = Mbr::FromBounds({0.55f, 0.5f}, {0.55f, 0.5f});
  const PrunerRegion regions[] = {{&point_box, 1}};
  EXPECT_EQ(AccessOver(q, 0.3, regions, Metric::kLMax), 0.0);
}

TEST(PageAccessProbabilityTest, MatchesClosedForm) {
  // One region with m points covering fraction f of its own volume:
  // P = (1 - f)^m (eq. 3).
  const std::vector<float> q{1.0f};
  const Mbr box = Mbr::FromBounds({0}, {1});
  const double r = 0.25;  // covers fraction 0.25 of the box
  const PrunerRegion regions[] = {{&box, 10}};
  const double expected = std::pow(0.75, 10);
  EXPECT_NEAR(AccessOver(q, r, regions, Metric::kLMax, 1e-12),
              expected, 1e-9);
}

TEST(PageAccessProbabilityTest, ProductOverRegions) {
  const std::vector<float> q{1.0f};
  const Mbr box_a = Mbr::FromBounds({0}, {1});
  const Mbr box_b = Mbr::FromBounds({1}, {2});
  const PrunerRegion regions[] = {{&box_a, 4}, {&box_b, 4}};
  const double expected = std::pow(0.75, 4) * std::pow(0.75, 4);
  EXPECT_NEAR(
      AccessOver(q, 0.25, regions, Metric::kLMax, 1e-12),
      expected, 1e-9);
}

TEST(PageAccessProbabilityTest, FloorShortCircuitsToZero) {
  const std::vector<float> q{0.5f};
  const Mbr box = Mbr::FromBounds({0}, {1});
  // Huge point count: probability collapses below any floor.
  const PrunerRegion regions[] = {{&box, 100000}};
  EXPECT_EQ(AccessOver(q, 0.4, regions, Metric::kLMax, 1e-6),
            0.0);
}

TEST(PageAccessProbabilityTest, MorePointsLowerProbability) {
  const std::vector<float> q{1.0f};
  const Mbr box = Mbr::FromBounds({0}, {1});
  const PrunerRegion few[] = {{&box, 2}};
  const PrunerRegion many[] = {{&box, 20}};
  EXPECT_GT(AccessOver(q, 0.25, few, Metric::kLMax, 1e-12),
            AccessOver(q, 0.25, many, Metric::kLMax, 1e-12));
}

// --- moments factorization (reference: the former inline L2 formula) ---

/// The L2 branch of IntersectionFraction as it read before the moments
/// were factored out, kept verbatim as the bit-identity reference.
double ReferenceL2Fraction(PointView q, double r, const Mbr& box) {
  if (r <= 0) return 0.0;
  double sum_mean = 0.0;
  double sum_variance = 0.0;
  for (size_t i = 0; i < q.size(); ++i) {
    const double a = box.lb(i) - q[i];
    const double b = box.ub(i) - q[i];
    const double m2 = (a * a + a * b + b * b) / 3.0;
    const double m4 =
        (a * a * a * a + a * a * a * b + a * a * b * b + a * b * b * b +
         b * b * b * b) /
        5.0;
    sum_mean += m2;
    sum_variance += std::max(0.0, m4 - m2 * m2);
  }
  const double target = r * r;
  if (sum_variance <= 1e-30) {
    return sum_mean <= target ? 1.0 : 0.0;
  }
  const double z = (target - sum_mean) / std::sqrt(sum_variance);
  return std::clamp(0.5 * std::erfc(-z / std::sqrt(2.0)), 0.0, 1.0);
}

/// PageAccessProbability as it read with no cut-off: the full eq. 3
/// product (a region covered entirely still returns 0 at once).
double ReferenceFullProduct(PointView q, double r,
                            std::span<const PrunerRegion> regions,
                            Metric metric) {
  double prob = 1.0;
  for (const PrunerRegion& region : regions) {
    const double fraction =
        metric == Metric::kL2 ? ReferenceL2Fraction(q, r, *region.box)
                              : IntersectionFraction(q, r, *region.box,
                                                     metric);
    if (fraction <= 0.0) continue;
    if (fraction >= 1.0) return 0.0;
    prob *= std::pow(1.0 - fraction, static_cast<double>(region.count));
  }
  return prob;
}

/// A random box in [0, 1]^d; each side is degenerate with
/// probability `degenerate`.
Mbr RandomBox(Rng& rng, size_t dims, double degenerate) {
  std::vector<float> lb(dims), ub(dims);
  for (size_t i = 0; i < dims; ++i) {
    const float a = static_cast<float>(rng.Uniform());
    const float b = rng.Uniform() < degenerate
                        ? a
                        : static_cast<float>(rng.Uniform());
    lb[i] = std::min(a, b);
    ub[i] = std::max(a, b);
  }
  return Mbr::FromBounds(std::move(lb), std::move(ub));
}

std::vector<float> RandomPoint(Rng& rng, size_t dims) {
  std::vector<float> q(dims);
  for (float& x : q) x = static_cast<float>(rng.Uniform(-0.2, 1.2));
  return q;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(DistanceMomentsTest, FactoredFractionIsBitwiseTheInlineFormula) {
  Rng rng(2024);
  for (size_t dims : {2u, 16u, 64u}) {
    for (double degenerate : {0.0, 0.3, 1.0}) {
      for (int trial = 0; trial < 200; ++trial) {
        const Mbr box = RandomBox(rng, dims, degenerate);
        const std::vector<float> q = RandomPoint(rng, dims);
        const DistanceMoments m = SquaredDistanceMoments(q, box);
        EXPECT_TRUE(m.ready);
        const double typical = std::sqrt(m.mean);
        for (double r : {0.0, 1e-300, 1e-9, 0.5 * typical, typical,
                         rng.Uniform(0.0, 2.0 * typical + 1.0), 1e150}) {
          const double want = ReferenceL2Fraction(q, r, box);
          EXPECT_EQ(Bits(FractionFromMoments(m, r)), Bits(want))
              << "d=" << dims << " r=" << r;
          EXPECT_EQ(Bits(IntersectionFraction(q, r, box, Metric::kL2)),
                    Bits(want))
              << "d=" << dims << " r=" << r;
        }
      }
    }
  }
}

TEST(DistanceMomentsTest, NegativeRadiusIsEmpty) {
  const Mbr box = Mbr::FromBounds({0, 0}, {1, 1});
  const std::vector<float> q{0.5f, 0.5f};
  EXPECT_EQ(FractionFromMoments(SquaredDistanceMoments(q, box), -1.0), 0.0);
}

TEST(PageAccessProbabilityTest, FloorCutoffMatchesFullProduct) {
  // With floor f, the early exit returns 0 exactly when the full
  // product ends below f, and the full product bit for bit otherwise —
  // both for fresh regions and for regions whose moments caches were
  // filled at another radius.
  constexpr double kFloor = 0.1;
  Rng rng(7);
  size_t cut = 0;
  size_t kept = 0;
  for (size_t dims : {2u, 16u, 64u}) {
    for (Metric metric : {Metric::kL2, Metric::kLMax}) {
      for (int trial = 0; trial < 300; ++trial) {
        const size_t num_regions = 1 + rng.Index(24);
        std::vector<Mbr> boxes;
        boxes.reserve(num_regions);
        for (size_t j = 0; j < num_regions; ++j) {
          boxes.push_back(RandomBox(rng, dims, 0.1));
        }
        std::vector<PrunerRegion> fresh;
        for (size_t j = 0; j < num_regions; ++j) {
          const auto count = static_cast<uint32_t>(
              rng.Index(4) == 0 ? 1 : 1 + rng.Index(60));
          fresh.push_back(PrunerRegion{&boxes[j], count});
        }
        const std::vector<float> q = RandomPoint(rng, dims);
        // Radii from "touches nothing" to "covers most regions".
        const double scale =
            metric == Metric::kL2 ? std::sqrt(dims / 6.0) : 0.5;
        const double r = rng.Uniform(0.0, 1.2) * scale;
        std::vector<DistanceMoments> slots(num_regions);
        std::vector<PrunerRegion> warm = fresh;
        for (size_t j = 0; j < num_regions; ++j) warm[j].moments = &slots[j];
        AccessOver(q, rng.Uniform(0.0, 1.2) * scale, warm, metric, 0.0);
        const double full = ReferenceFullProduct(q, r, fresh, metric);
        for (const double got :
             {AccessOver(q, r, fresh, metric, kFloor),
              AccessOver(q, r, warm, metric, kFloor)}) {
          if (full < kFloor) {
            EXPECT_EQ(got, 0.0) << "full product " << full;
          } else {
            EXPECT_EQ(Bits(got), Bits(full));
          }
        }
        (full < kFloor ? cut : kept) += 1;
      }
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(cut, 100u);
  EXPECT_GT(kept, 100u);
}

TEST(PageAccessProbabilityTest, MomentsCacheFillsOnceAndIsReused) {
  const Mbr box = Mbr::FromBounds({0, 0}, {1, 1});
  const std::vector<float> q{1.5f, 0.5f};
  DistanceMoments slot;
  const PrunerRegion regions[] = {{&box, 3, &slot}};
  EXPECT_FALSE(slot.ready);
  AccessOver(q, 0.8, regions, Metric::kL2);
  ASSERT_TRUE(slot.ready);
  const DistanceMoments want = SquaredDistanceMoments(q, box);
  EXPECT_EQ(Bits(slot.mean), Bits(want.mean));
  EXPECT_EQ(Bits(slot.variance), Bits(want.variance));
  EXPECT_EQ(Bits(slot.stddev), Bits(want.stddev));
  // Another radius reuses the cached moments and still matches a fresh
  // region's evaluation.
  const PrunerRegion fresh[] = {{&box, 3}};
  EXPECT_EQ(Bits(AccessOver(q, 1.1, regions, Metric::kL2)),
            Bits(AccessOver(q, 1.1, fresh, Metric::kL2)));
}

}  // namespace
}  // namespace iq
