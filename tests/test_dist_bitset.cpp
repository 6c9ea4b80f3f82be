// Tests for DistBitset (growable distributed atomic bitset).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "containers/dist_bitset.hpp"
#include "runtime/fault_plan.hpp"

namespace rt = rcua::rt;
using rcua::cont::DistBitset;

namespace {
void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }
}  // namespace

TEST(DistBitset, SetTestClear) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 256, {.block_size_words = 4});
  EXPECT_FALSE(bits.test(7));
  EXPECT_FALSE(bits.set(7));
  EXPECT_TRUE(bits.test(7));
  EXPECT_TRUE(bits.set(7));   // already set
  EXPECT_TRUE(bits.clear(7));
  EXPECT_FALSE(bits.test(7));
  EXPECT_FALSE(bits.clear(7));
  drain_qsbr();
}

TEST(DistBitset, TestBeyondCapacityIsFalse) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 64, {.block_size_words = 2});
  EXPECT_FALSE(bits.test(1 << 20));
  drain_qsbr();
}

TEST(DistBitset, ClearOfANeverSetBitReturnsFalseAtOnce) {
  // No set() ever asked for the bit's word, so there is no replication
  // gap to wait out: the bit is clear.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 64);
  EXPECT_FALSE(bits.clear(1 << 20));
  EXPECT_FALSE(bits.set(1 << 20));
  EXPECT_TRUE(bits.clear(1 << 20));
  drain_qsbr();
}

TEST(DistBitset, ClearWaitsOutAGrowthOtherLocalesHavePublished) {
  // A growth doubles the bitset, so it also creates words past the one
  // its set() asked for. Here locale 0 has published the growth and
  // locale 1 has not: the broadcast to locale 1 is dropped once, and the
  // retry waits until locale 0's spine drain finishes, which a pinned
  // view on locale 0 delays. A set() of a word only the growth created
  // lands on locale 0; a clear() of it on locale 1 must wait for the
  // growth and find the bit. (EXPECT, not ASSERT, once threads run, so a
  // failure still reaches the joins.)
  using Bitset = DistBitset<rcua::EbrPolicy>;
  rt::FaultPlan plan;  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  Bitset bits(cluster, 64, {.block_size_words = 2});  // words 0-1
  const auto capacity_at = [&](std::uint32_t l) {
    std::size_t bits_cap = 0;
    cluster.on(l, [&] { bits_cap = bits.capacity_bits(); });
    return bits_cap;
  };
  const auto wait_for = [](auto&& pred) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
    while (!pred() && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    return pred();
  };

  std::atomic<bool> in_section{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    cluster.on(0, [&] {
      const auto pinned = bits.backing().view();
      in_section.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  EXPECT_TRUE(wait_for([&] { return in_section.load(); }));

  plan.add({.action = rt::FaultPlan::Action::kDropBroadcast,
            .locale = 1,
            .fire_from = 1,
            .fire_count = 1});
  cluster.set_fault_plan(&plan);
  std::thread grower([&] {
    cluster.on(0, [&] { bits.set(2 * 64); });  // grows to words 0-3
  });
  EXPECT_TRUE(wait_for([&] { return capacity_at(0) == 4 * 64; }));
  EXPECT_EQ(capacity_at(1), 2u * 64);

  cluster.on(0, [&] { EXPECT_FALSE(bits.set(3 * 64)); });
  std::atomic<bool> cleared{false};
  std::atomic<bool> clear_returned{false};
  std::thread clearer([&] {
    cluster.on(1, [&] { cleared.store(bits.clear(3 * 64)); });
    clear_returned.store(true);
  });
  // The growth cannot finish while the reader holds its section, so
  // clear() must still be waiting when the reader lets go.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(clear_returned.load()) << "clear() did not wait for the growth";
  release.store(true);
  reader.join();
  grower.join();
  clearer.join();
  EXPECT_TRUE(cleared.load()) << "clear() missed a bit set on locale 0";
  EXPECT_FALSE(bits.test(3 * 64));
  EXPECT_EQ(plan.fired(rt::FaultPlan::Action::kDropBroadcast), 1u);
  cluster.set_fault_plan(nullptr);
}

TEST(DistBitset, SetGrowsOnDemand) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 64, {.block_size_words = 2});
  const std::size_t before = bits.capacity_bits();
  bits.set(before + 100);
  EXPECT_GT(bits.capacity_bits(), before);
  EXPECT_TRUE(bits.test(before + 100));
  EXPECT_FALSE(bits.test(before + 101));
  drain_qsbr();
}

TEST(DistBitset, CountMatchesSetBits) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 6 * 64 * 4, {.block_size_words = 4});
  std::size_t expected = 0;
  for (std::size_t i = 0; i < bits.capacity_bits(); i += 17) {
    bits.set(i);
    ++expected;
  }
  EXPECT_EQ(bits.count(), expected);
  drain_qsbr();
}

TEST(DistBitset, TryClaimIsExclusive) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<> bits(cluster, 4096, {.block_size_words = 4});
  constexpr int kThreads = 4;
  constexpr std::size_t kBits = 512;
  std::vector<std::vector<std::size_t>> claimed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kBits; ++i) {
        if (bits.try_claim(i)) claimed[t].push_back(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every bit claimed exactly once across all threads.
  std::set<std::size_t> all;
  std::size_t total = 0;
  for (const auto& v : claimed) {
    total += v.size();
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, kBits);
  EXPECT_EQ(all.size(), kBits);
  drain_qsbr();
}

TEST(DistBitset, ConcurrentSettersWithGrowth) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  DistBitset<> bits(cluster, 64, {.block_size_words = 2});
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        bits.set(static_cast<std::size_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bits.count(), kThreads * kPerThread);
  for (std::size_t i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(bits.test(i)) << i;
  }
  drain_qsbr();
}

TEST(DistBitset, EbrPolicyVariantWorks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<rcua::EbrPolicy> bits(cluster, 256, {.block_size_words = 2});
  bits.set(100);
  EXPECT_TRUE(bits.test(100));
  EXPECT_EQ(bits.count(), 1u);
}
