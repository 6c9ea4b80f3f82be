// Tests for DistBitset (growable distributed atomic bitset).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "containers/dist_bitset.hpp"
#include "runtime/fault_plan.hpp"
#include "scoped_env.hpp"

namespace rt = rcua::rt;
using rcua::cont::DistBitset;
using rcua::test::ScopedEnv;
using Word = std::atomic<std::uint64_t>;

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

TEST(DistBitset, SetReturnsOnlyOnceEveryLocaleServesItsWord) {
  // A growth doubles the bitset, so it also creates words past the one
  // its set() asked for. Here locale 0 has published the growth and
  // locale 1 has not: the broadcast to locale 1 is dropped once, and the
  // retry waits until locale 0's spine drain finishes, which a pinned
  // view on locale 0 delays. A set() of a word only the growth created
  // must not return until every locale serves the word, so meanwhile a
  // clear() of it on locale 1 finds the bit clear at once. (EXPECT, not
  // ASSERT, once threads run, so a failure still reaches the joins.)
  using Bitset = DistBitset<rcua::EbrPolicy>;
  rt::FaultPlan plan;  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  Bitset bits(cluster, 64, {.block_size_words = 2});  // words 0-1
  const auto published_at = [&](std::uint32_t l) {
    std::size_t words = 0;
    cluster.on(l, [&] { words = bits.backing().view().capacity(); });
    return words * 64;
  };
  const auto wait_for = [](auto&& pred, std::chrono::seconds bound) {
    const auto until = std::chrono::steady_clock::now() + bound;
    while (!pred() && std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    return pred();
  };
  constexpr std::chrono::seconds kBound{30};

  std::atomic<bool> in_section{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    cluster.on(0, [&] {
      const auto pinned = bits.backing().view();
      in_section.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  EXPECT_TRUE(wait_for([&] { return in_section.load(); }, kBound));

  plan.add({.action = rt::FaultPlan::Action::kDropBroadcast,
            .locale = 1,
            .fire_from = 1,
            .fire_count = 1});
  cluster.set_fault_plan(&plan);
  std::thread grower([&] {
    cluster.on(0, [&] { bits.set(2 * 64); });  // grows to words 0-3
  });
  EXPECT_TRUE(wait_for([&] { return published_at(0) == 4 * 64; }, kBound));
  EXPECT_EQ(published_at(1), 2u * 64);

  std::atomic<bool> set_returned{false};
  std::thread setter([&] {
    cluster.on(0, [&] { EXPECT_FALSE(bits.set(3 * 64)); });
    set_returned.store(true);
  });
  // The growth cannot finish while the reader holds its section.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(set_returned.load())
      << "set() returned before locale 1 served its word";
  // On its own thread, so a clear() that waits for the growth fails the
  // bound instead of hanging the test.
  std::atomic<int> cleared{-1};
  std::thread clearer([&] {
    cluster.on(1, [&] {
      const bool was_set = bits.clear(3 * 64);
      EXPECT_EQ(bits.capacity_bits(), 2u * 64);
      cleared.store(was_set ? 1 : 0);
    });
  });
  EXPECT_TRUE(wait_for([&] { return cleared.load() != -1; },
                       std::chrono::seconds(10)))
      << "clear() waited for the growth";
  release.store(true);
  reader.join();
  grower.join();
  setter.join();
  clearer.join();
  EXPECT_EQ(cleared.load(), 0) << "clear() found a bit set() had not set";
  cluster.on(1, [&] {
    EXPECT_TRUE(bits.clear(3 * 64)) << "clear() missed the bit set()";
  });
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

// The bulk engine, the cache fill and rehome copy std::atomic words
// element by element (plat::relaxed_copy), with the block cache off and
// on.
TEST(DistBitset, BulkPathsSeeTheWordsSetWrote) {
  for (const char* cache_bytes : {"0", "1048576"}) {
    SCOPED_TRACE(cache_bytes);
    const ScopedEnv cache("RCUA_CACHE_CAPACITY_BYTES", cache_bytes);
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
    DistBitset<> bits(cluster, 4 * 64, {.block_size_words = 2});
    bits.set(0 * 64 + 5);  // word 0, locale 0's block
    bits.set(3 * 64 + 9);  // word 3, locale 1's block
    auto& words = bits.backing();
    std::vector<std::uint64_t> seen(4, 0);
    const auto record = [&](std::size_t base, Word* data, std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) seen[base + k] = data[k].load();
    };
    words.for_each_block(0, 4, record);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1ULL << 5, 0, 0, 1ULL << 9}));
    const auto copy = words.bulk_read(0, 4);
    for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(copy[w].load(), seen[w]) << w;
    // With the cache on, locale 1's block came through a cache fill.
    EXPECT_EQ(words.cache_entries_at(0), words.cache_enabled() ? 1u : 0u);
    ASSERT_TRUE(words.rehome(1));  // copies the words the same way
    EXPECT_TRUE(bits.test(5));
    EXPECT_TRUE(bits.test(3 * 64 + 9));
    EXPECT_EQ(bits.count(), 2u);
    drain_qsbr();
  }
}

TEST(DistBitset, EbrPolicyVariantWorks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<rcua::EbrPolicy> bits(cluster, 256, {.block_size_words = 2});
  bits.set(100);
  EXPECT_TRUE(bits.test(100));
  EXPECT_EQ(bits.count(), 1u);
}

namespace {

template <typename Policy>
struct DistBitsetAllPolicies : public ::testing::Test {};

using AllPolicies =
    ::testing::Types<rcua::QsbrPolicy, rcua::EbrPolicy, rcua::LegacyEbrPolicy,
                     rcua::IbrPolicy, rcua::HazardErasPolicy>;
TYPED_TEST_SUITE(DistBitsetAllPolicies, AllPolicies);

}  // namespace

// count() walks every locale's spine while each growth retires it. The
// walk pins the spine in its read section; a walk without one reads a
// spine the growth already freed (a heap-use-after-free under ASan).
// Every count lies between the set bits before and after the growths.
TYPED_TEST(DistBitsetAllPolicies, CountIsSafeAgainstConcurrentGrowth) {
  constexpr std::size_t kWords = 4;  // per block
  constexpr std::size_t kGrowths = 200;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistBitset<TypeParam> bits(cluster, 2 * kWords * 64,
                             {.block_size_words = kWords});
  for (std::size_t i = 0; i < 2 * kWords * 64; i += 3) bits.set(i);
  const std::size_t before = bits.count();
  std::atomic<bool> done{false};
  std::size_t lowest = SIZE_MAX;
  std::size_t highest = 0;
  std::thread counter([&] {
    do {
      const std::size_t c = bits.count();
      lowest = std::min(lowest, c);
      highest = std::max(highest, c);
    } while (!done.load(std::memory_order_acquire));
  });
  auto& words = bits.backing();
  for (std::size_t g = 0; g < kGrowths; ++g) {
    const std::size_t first_new_bit = words.capacity() * 64;
    words.resize_add(kWords);
    bits.set(first_new_bit + g % 64);
  }
  done.store(true, std::memory_order_release);
  counter.join();
  const std::size_t after = bits.count();
  EXPECT_EQ(after, before + kGrowths);
  EXPECT_GE(lowest, before);
  EXPECT_LE(highest, after);
  drain_qsbr();
}
