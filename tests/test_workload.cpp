// Tests for the workload generators (uniform / sequential / Zipfian).

#include <gtest/gtest.h>

#include <vector>

#include "util/workload.hpp"

namespace util = rcua::util;

TEST(Workload, UniformStaysInRange) {
  util::UniformGenerator gen(100, 42);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.next(), 100u);
}

TEST(Workload, UniformCoversRange) {
  util::UniformGenerator gen(16, 7);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 16000; ++i) ++counts[gen.next()];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Workload, SequentialWrapsAtRange) {
  util::SequentialGenerator gen(5, 3);
  std::vector<std::uint64_t> seq;
  for (int i = 0; i < 7; ++i) seq.push_back(gen.next());
  EXPECT_EQ(seq, (std::vector<std::uint64_t>{3, 4, 0, 1, 2, 3, 4}));
}

TEST(Workload, ZipfStaysInRange) {
  util::ZipfGenerator gen(1000, 0.99, 11);
  for (int i = 0; i < 20000; ++i) EXPECT_LT(gen.next(), 1000u);
}

TEST(Workload, ZipfIsSkewedTowardLowRanks) {
  util::ZipfGenerator gen(1000, 0.99, 11);
  std::uint64_t head = 0, total = 50000;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (gen.next() < 10) ++head;  // top-10 of 1000 keys
  }
  // YCSB-style 0.99 skew: the top 1% of keys draw a large share.
  EXPECT_GT(head, total / 4);
}

TEST(Workload, LowThetaApproachesUniform) {
  util::ZipfGenerator skewed(1000, 0.99, 3);
  util::ZipfGenerator flat(1000, 0.05, 3);
  auto head_share = [](util::ZipfGenerator& g) {
    std::uint64_t head = 0;
    for (int i = 0; i < 20000; ++i) {
      if (g.next() < 10) ++head;
    }
    return head;
  };
  EXPECT_GT(head_share(skewed), 4 * head_share(flat));
}

TEST(Workload, ZipfSharedZetaMatchesSelfComputed) {
  const double zetan = util::ZipfGenerator::compute_zetan(500, 0.9);
  util::ZipfGenerator a(500, 0.9, 123);
  util::ZipfGenerator b(500, 0.9, 123, zetan);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Workload, ZipfDeterministicPerSeed) {
  util::ZipfGenerator a(100, 0.8, 5), b(100, 0.8, 5), c(100, 0.8, 6);
  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}
