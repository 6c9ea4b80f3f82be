// Unit tests for src/platform: alignment, backoff, locks, RNG, timing,
// topology.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"

namespace plat = rcua::plat;

TEST(Align, CacheAlignedHasFullLineAlignment) {
  EXPECT_EQ(alignof(plat::CacheAligned<int>), plat::kCacheLine);
  EXPECT_EQ(alignof(plat::CacheAligned<std::uint64_t>), plat::kCacheLine);
  EXPECT_EQ(sizeof(plat::CacheAligned<char>) % plat::kCacheLine, 0u);
}

TEST(Align, AdjacentElementsAreOnDistinctLines) {
  plat::CacheAligned<std::uint64_t> pair[2];
  const auto a = reinterpret_cast<std::uintptr_t>(&pair[0].value);
  const auto b = reinterpret_cast<std::uintptr_t>(&pair[1].value);
  EXPECT_GE(b - a, plat::kCacheLine);
}

TEST(Align, AccessorsReachTheValue) {
  plat::CacheAligned<int> x{41};
  EXPECT_EQ(*x, 41);
  *x += 1;
  EXPECT_EQ(x.value, 42);
}

TEST(Align, RoundUpPow2) {
  EXPECT_EQ(plat::round_up_pow2(0, 64), 0u);
  EXPECT_EQ(plat::round_up_pow2(1, 64), 64u);
  EXPECT_EQ(plat::round_up_pow2(64, 64), 64u);
  EXPECT_EQ(plat::round_up_pow2(65, 64), 128u);
}

TEST(Align, IsPow2) {
  EXPECT_FALSE(plat::is_pow2(0));
  EXPECT_TRUE(plat::is_pow2(1));
  EXPECT_TRUE(plat::is_pow2(1024));
  EXPECT_FALSE(plat::is_pow2(1000));
}

TEST(Backoff, EscalatesToYield) {
  plat::Backoff b(/*yield_threshold=*/8);
  EXPECT_FALSE(b.is_yielding());
  for (int i = 0; i < 10; ++i) b.pause();
  EXPECT_TRUE(b.is_yielding());
  b.reset();
  EXPECT_FALSE(b.is_yielding());
}

TEST(Spinlock, BasicLockUnlock) {
  plat::Spinlock lock;
  EXPECT_FALSE(lock.is_locked());
  lock.lock();
  EXPECT_TRUE(lock.is_locked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Spinlock, MutualExclusionUnderContention) {
  plat::Spinlock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<plat::Spinlock> guard(lock);
        ++counter;  // data race iff the lock is broken
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Rng, SplitMixIsDeterministic) {
  plat::SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  plat::Xoshiro256 a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowStaysInRange) {
  plat::Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBoundIsZero) {
  plat::Xoshiro256 rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversSmallRangeUniformly) {
  plat::Xoshiro256 rng(2024);
  constexpr std::uint64_t kBound = 16;
  constexpr int kSamples = 32000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    // Expect 2000 per bin; allow generous slack.
    EXPECT_GT(counts[v], 1500) << "bin " << v;
    EXPECT_LT(counts[v], 2500) << "bin " << v;
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  plat::Xoshiro256 rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Mix64IsAPermutationOnSamples) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(plat::mix64(i));
  EXPECT_EQ(outs.size(), 1000u);  // injective on this sample
}

TEST(Timing, MonotonicClockAdvances) {
  const auto a = plat::now_ns();
  const auto b = plat::now_ns();
  EXPECT_GE(b, a);
}

TEST(Timing, TimerMeasuresSpin) {
  plat::Timer timer;
  plat::spin_for_ns(2'000'000);  // 2 ms
  EXPECT_GE(timer.elapsed_ns(), 1'500'000u);
}

TEST(Timing, ThreadCpuClockAdvancesUnderWork) {
  const auto a = plat::thread_cpu_ns();
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    sink = sink + static_cast<std::uint64_t>(i);
  }
  const auto b = plat::thread_cpu_ns();
  EXPECT_GT(b, a);
}

TEST(Topology, ReportsAtLeastOneThread) {
  EXPECT_GE(plat::hardware_threads(), 1u);
}

TEST(Topology, StripeIndexStaysInRange) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                        std::size_t{64}}) {
    EXPECT_LT(plat::stripe_index(n), n) << "stripes=" << n;
  }
  // Stable within a thread: the stripe is a pure function of the thread
  // identity, so repeated calls agree (the line stays cache-resident).
  EXPECT_EQ(plat::stripe_index(64), plat::stripe_index(64));
}
