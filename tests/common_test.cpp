// Tests for the common substrate: RNG determinism and distributions,
// units, Result, and the table formatter.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace caraoke {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(7);
  Rng childA = parent.fork();
  Rng childB = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (childA.uniformInt(0, 1000) == childB.uniformInt(0, 1000)) ++equal;
  EXPECT_LT(equal, 10);
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const auto k = rng.uniformInt(5, 9);
    EXPECT_GE(k, 5);
    EXPECT_LE(k, 9);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(2);
  double sum = 0, sumSq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(3.0, 2.0);
    sum += v;
    sumSq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sumSq / n - mean * mean), 2.0, 0.05);
}

TEST(Rng, GaussianWithZeroStddevReturnsTheMeanAndKeepsTheStream) {
  Rng flat(4), unit(4);
  EXPECT_EQ(flat.gaussian(5.0, 0.0), 5.0);
  unit.gaussian(5.0, 1.0);
  EXPECT_EQ(flat.gaussian(0.0, 1.0), unit.gaussian(0.0, 1.0));

  // With stddev > 0 the stream is the one normal_distribution gives.
  Rng rng(5);
  std::mt19937_64 engine(5);
  for (int i = 0; i < 100; ++i) {
    std::normal_distribution<double> reference(3.0, 2.0);
    EXPECT_EQ(rng.gaussian(3.0, 2.0), reference(engine)) << i;
  }
}

TEST(Rng, TruncatedGaussianRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.truncatedGaussian(0.0, 10.0, -1.0, 1.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  const auto sample = rng.sampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto i : sample) EXPECT_LT(i, 100u);
  // Requesting more than the population returns the whole population.
  EXPECT_EQ(rng.sampleWithoutReplacement(5, 10).size(), 5u);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(MHz(915), 915e6);
  EXPECT_DOUBLE_EQ(usec(512), 512e-6);
  EXPECT_NEAR(feet(100), 30.48, 1e-12);
  EXPECT_NEAR(mph(60), 26.8224, 1e-9);
  EXPECT_NEAR(toMph(mph(37.0)), 37.0, 1e-12);
  EXPECT_NEAR(deg2rad(180.0), kPi, 1e-15);
  EXPECT_NEAR(rad2deg(kPi / 2), 90.0, 1e-12);
  EXPECT_NEAR(toDb(100.0), 20.0, 1e-12);
  EXPECT_NEAR(fromDb(30.0), 1000.0, 1e-9);
  EXPECT_NEAR(wavelength(915e6), 0.3276, 1e-3);
}

TEST(Units, WrapPhase) {
  EXPECT_NEAR(wrapPhase(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrapPhase(3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrapPhase(-3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrapPhase(kTwoPi + 0.5), 0.5, 1e-12);
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.valueOr(0), 42);

  auto fail = Result<int>::failure("boom");
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.error(), "boom");
  EXPECT_EQ(fail.valueOr(-1), -1);
  EXPECT_THROW(fail.value(), std::logic_error);
}

TEST(Table, RendersAlignedRows) {
  Table table({"a", "long header"});
  table.addRow({"1", "x"});
  table.addRow({"22", "yy"});
  const std::string out = table.render();
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_THROW(table.addRow({"only one"}), std::invalid_argument);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace caraoke
