#include "stats/rng.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/moments.h"

namespace svc::stats {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformDoubleMoments) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.UniformDouble());
  EXPECT_NEAR(m.mean(), 0.5, 0.005);
  EXPECT_NEAR(m.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(200, 500);
    ASSERT_GE(u, 200);
    ASSERT_LT(u, 500);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, StandardNormalMoments) {
  Rng rng(23);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.StandardNormal());
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(29);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) m.Add(rng.Normal(300, 90));
  EXPECT_NEAR(m.mean(), 300, 1.5);
  EXPECT_NEAR(std::sqrt(m.variance()), 90, 1.5);
}

// FillStandardNormal must return exactly what n sequential StandardNormal()
// calls would, with or without a spare pending beforehand, and leave the
// stream (spare and generator state) where those calls would.
TEST(Rng, FillStandardNormalMatchesSequentialCalls) {
  std::vector<double> scratch;
  for (const bool pending_spare : {false, true}) {
    for (const size_t n : {0, 1, 2, 3, 7, 64, 1000}) {
      SCOPED_TRACE("n " + std::to_string(n) + " pending spare " +
                   std::to_string(pending_spare));
      Rng sequential(53 + n);
      Rng batched(53 + n);
      if (pending_spare) {
        // One call leaves the pair's second value as the spare.
        EXPECT_EQ(sequential.StandardNormal(), batched.StandardNormal());
      }
      std::vector<double> expected(n);
      for (double& z : expected) z = sequential.StandardNormal();
      std::vector<double> got(n, -1.0);
      batched.FillStandardNormal(got.data(), n, scratch);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(expected[i]))
            << "draw " << i;
      }
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(batched.StandardNormal()),
                  std::bit_cast<uint64_t>(sequential.StandardNormal()))
            << "next normal " << i;
      }
      EXPECT_EQ(batched.NextU64(), sequential.NextU64());
    }
  }
}

// Batches of mixed sizes, back to back, reproduce one long sequential run.
TEST(Rng, FillStandardNormalBatchesChain) {
  Rng sequential(59);
  Rng batched(59);
  std::vector<double> scratch;
  std::vector<double> got;
  for (const size_t n : {5, 0, 1, 1, 2, 9, 33, 4}) {
    got.assign(n, 0.0);
    batched.FillStandardNormal(got.data(), n, scratch);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], sequential.StandardNormal()) << "batch " << n;
    }
  }
  EXPECT_EQ(batched.NextU64(), sequential.NextU64());
}

TEST(Rng, ExponentialMoments) {
  Rng rng(31);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Exponential(49));
  EXPECT_NEAR(m.mean(), 49, 0.7);
  // Exponential: stddev == mean.
  EXPECT_NEAR(std::sqrt(m.variance()), 49, 1.0);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.Exponential(1.0), 0.0);
}

class PoissonMean : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMean, MatchesMeanAndVariance) {
  const double mean = GetParam();
  Rng rng(41);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) {
    m.Add(static_cast<double>(rng.Poisson(mean)));
  }
  EXPECT_NEAR(m.mean(), mean, std::max(0.05, mean * 0.03));
  EXPECT_NEAR(m.variance(), mean, std::max(0.08, mean * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Grid, PoissonMean,
                         ::testing::Values(0.1, 0.5, 1.0, 4.0, 20.0, 100.0));

TEST(Rng, PoissonZeroMean) {
  Rng rng(43);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, SplitStreamsDecorrelated) {
  Rng parent(47);
  Rng child = parent.Split();
  RunningMoments diff;
  for (int i = 0; i < 10000; ++i) {
    diff.Add(parent.UniformDouble() - child.UniformDouble());
  }
  // Independent uniforms: mean difference ~0, variance ~1/6.
  EXPECT_NEAR(diff.mean(), 0.0, 0.02);
  EXPECT_NEAR(diff.variance(), 1.0 / 6.0, 0.02);
}

}  // namespace
}  // namespace svc::stats
