// Tests for the containers built on RCUArray: DistVector, DistIdTable,
// DistHashMap.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "containers/dist_hash_map.hpp"
#include "containers/dist_id_table.hpp"
#include "containers/dist_vector.hpp"

namespace rt = rcua::rt;
using rcua::cont::DistHashMap;
using rcua::cont::DistIdTable;
using rcua::cont::DistVector;

namespace {
void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }
}  // namespace

TEST(DistVector, PushBackAndIndex) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 16});
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(vec.push_back(i * 5), i);
  }
  EXPECT_EQ(vec.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(vec[i], i * 5);
  drain_qsbr();
}

TEST(DistVector, GrowsPastManyBlocks) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 8});
  for (std::uint64_t i = 0; i < 500; ++i) vec.push_back(i);
  EXPECT_GE(vec.capacity(), 500u);
  EXPECT_GT(vec.backing().num_blocks(), 10u);
  EXPECT_EQ(vec[499], 499u);
  drain_qsbr();
}

TEST(DistVector, GrowthKeepsDoublingPastSixtyFourBlocks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 1});
  for (std::uint64_t i = 0; i < 129; ++i) vec.push_back(i);
  EXPECT_EQ(vec.backing().num_blocks(), 256u);
  EXPECT_EQ(vec[128], 128u);
  drain_qsbr();
}

TEST(DistVector, AtThrowsPastSize) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 8});
  vec.push_back(1);
  EXPECT_NO_THROW(vec.at(0));
  EXPECT_THROW(vec.at(1), std::out_of_range);
  drain_qsbr();
}

TEST(DistVector, IndexNeverReservedThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 8});
  vec.push_back(1);
  EXPECT_EQ(vec[0], 1u);
  // No push_back reserved these indices, so no growth will ever cover
  // index 1000: it must throw rather than wait.
  EXPECT_THROW((void)vec[1], std::out_of_range);
  EXPECT_THROW((void)vec[1000], std::out_of_range);
  drain_qsbr();
}

TEST(DistVector, ConcurrentPushersReserveDistinctSlots) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 32});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        vec.push_back(static_cast<std::uint64_t>(t) * kPerThread + i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(vec.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  // Every pushed value appears exactly once.
  std::multiset<std::uint64_t> seen;
  for (std::size_t i = 0; i < vec.size(); ++i) seen.insert(vec[i]);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(seen.count(static_cast<std::uint64_t>(t) * kPerThread + i + 1),
                1u);
    }
  }
  drain_qsbr();
}

TEST(DistIdTable, AllocateGetRelease) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 16});
  const auto id1 = table.allocate(100);
  const auto id2 = table.allocate(200);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(table.get(id1), 100u);
  EXPECT_EQ(table.get(id2), 200u);
  EXPECT_EQ(table.live(), 2u);
  table.release(id1);
  EXPECT_EQ(table.live(), 1u);
  // Released ids are recycled.
  const auto id3 = table.allocate(300);
  EXPECT_EQ(id3, id1);
  EXPECT_EQ(table.get(id3), 300u);
  drain_qsbr();
}

TEST(DistIdTable, GrowsBeyondInitialBlocks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 8});
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto id = table.allocate(i);
    EXPECT_EQ(table.get(id), i);
  }
  EXPECT_EQ(table.high_water(), 200u);
  EXPECT_GE(table.capacity(), 200u);
  drain_qsbr();
}

// An id never allocated has no growth coming to cover it: get() and
// read() throw instead of waiting for capacity past it.
TEST(DistIdTable, GetNeverAllocatedThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 64});
  EXPECT_EQ(table.get(table.allocate(7)), 7u);
  EXPECT_THROW((void)table.get(1), std::out_of_range);
  EXPECT_THROW((void)table.get(1000), std::out_of_range);
  drain_qsbr();
}

TEST(DistIdTable, ReadNeverAllocatedThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 64});
  EXPECT_EQ(table.read(table.allocate(7)), 7u);
  EXPECT_THROW((void)table.read(1), std::out_of_range);
  EXPECT_THROW((void)table.read(1000), std::out_of_range);
  drain_qsbr();
}

// Releasing an id nobody was handed must not reach the free list (the
// next allocate would hand it out past capacity) or the live count.
TEST(DistIdTable, ReleaseNeverAllocatedThrows) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 8});
  EXPECT_THROW(table.release(1000), std::out_of_range);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.allocate(7), 0u);
  EXPECT_EQ(table.read(0), 7u);
  EXPECT_EQ(table.live(), 1u);
  drain_qsbr();
}

// A second release of an id must not reach the free list twice (two
// allocates would share the slot) or wrap the live count.
TEST(DistIdTable, DoubleReleaseThrows) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 8});
  const auto id = table.allocate(7);
  table.release(id);
  EXPECT_THROW(table.release(id), std::invalid_argument);
  EXPECT_EQ(table.live(), 0u);
  const auto a = table.allocate(1);
  const auto b = table.allocate(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.read(a), 1u);
  EXPECT_EQ(table.read(b), 2u);
  // Allocated again, the id can be released again.
  table.release(a);
  EXPECT_EQ(table.live(), 1u);
  drain_qsbr();
}

TEST(DistIdTable, ConcurrentAllocatorsGetUniqueIds) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  DistIdTable<std::uint64_t> table(cluster, {.block_size = 32});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::vector<std::vector<std::size_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ids[t].push_back(
            table.allocate(static_cast<std::uint64_t>(t * kPerThread + i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::size_t> uniq;
  for (const auto& v : ids) uniq.insert(v.begin(), v.end());
  EXPECT_EQ(uniq.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  // Values readable through their ids.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(table.get(ids[t][i]),
                static_cast<std::uint64_t>(t * kPerThread + i));
    }
  }
  drain_qsbr();
}

TEST(DistHashMap, InsertFindUpdate) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 64, .block_size = 64});
  EXPECT_TRUE(map.insert(1, 10));
  EXPECT_TRUE(map.insert(2, 20));
  EXPECT_FALSE(map.insert(1, 11));  // update
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(map.find(2), std::optional<std::uint64_t>(20));
  EXPECT_EQ(map.find(3), std::nullopt);
  drain_qsbr();
}

TEST(DistHashMap, EraseAndRevive) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 16, .block_size = 64});
  EXPECT_TRUE(map.insert(5, 50));
  EXPECT_TRUE(map.erase(5));
  EXPECT_FALSE(map.erase(5));
  EXPECT_EQ(map.find(5), std::nullopt);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.insert(5, 51));  // revives the tombstone
  EXPECT_EQ(map.find(5), std::optional<std::uint64_t>(51));
  drain_qsbr();
}

TEST(DistHashMap, CollisionChainsWork) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  // One bucket: everything chains.
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 1, .block_size = 64});
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(map.insert(k, k * 2));
  EXPECT_EQ(map.size(), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(map.find(k), std::optional<std::uint64_t>(k * 2));
  }
  EXPECT_EQ(map.find(100), std::nullopt);
  drain_qsbr();
}

TEST(DistHashMap, GrowsSlabUnderLoad) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 8, .block_size = 16});
  for (std::uint64_t k = 0; k < 400; ++k) map.insert(k, k);
  EXPECT_GT(map.growths(), 0u);
  for (std::uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(map.find(k), std::optional<std::uint64_t>(k)) << k;
  }
  drain_qsbr();
}

TEST(DistHashMap, ConcurrentInsertersDisjointKeys) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 64, .block_size = 64});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto k = static_cast<std::uint64_t>(t) * kPerThread + i;
        map.insert(k, k + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(map.find(k), std::optional<std::uint64_t>(k + 1)) << k;
  }
  drain_qsbr();
}

TEST(DistHashMap, ConcurrentSameKeyInsertsCountOnce) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 4});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 4, .block_size = 64});
  std::atomic<int> new_inserts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < 100; ++k) {
        if (map.insert(k, static_cast<std::uint64_t>(t))) {
          new_inserts.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(new_inserts.load(), 100);
  EXPECT_EQ(map.size(), 100u);
  drain_qsbr();
}

TEST(DistHashMap, MixedChurnStress) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 32, .block_size = 32});
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> bad{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      rcua::plat::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 11);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t k = rng.next_below(64);
        switch (rng.next_below(3)) {
          case 0:
            map.insert(k, k * 1000 + 1);
            break;
          case 1:
            map.erase(k);
            break;
          default: {
            auto v = map.find(k);
            if (v && *v != k * 1000 + 1) bad.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  // Post-quiescence sanity: size equals the number of present keys.
  std::size_t present = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    if (map.contains(k)) ++present;
  }
  EXPECT_EQ(map.size(), present);
  drain_qsbr();
}

TEST(DistHashMap, GrowthRaceRegression) {
  // Regression for the cross-locale replication gap: chains may reference
  // overflow slots in blocks another locale's snapshot replica has not
  // observed yet. Tiny blocks force constant growth; every thread chases
  // chains through just-linked slots. Crashed (heap-buffer-overflow on
  // the spine) before DistHashMap::slot_at waited out the gap.
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 4});
  DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 4, .block_size = 8});
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> wrong{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < 600; ++k) {
        const std::uint64_t key = k * 6 + static_cast<std::uint64_t>(t);
        map.insert(key, key + 1);
        const auto v = map.find(key);
        if (!v || *v != key + 1) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(map.size(), 3600u);
  EXPECT_GT(map.growths(), 3u);
  drain_qsbr();
}

TEST(DistVector, CrossThreadIndexPublicationRegression) {
  // A consumer reading indices published by producers must tolerate its
  // locale replica lagging the growth that created them.
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 4});
  DistVector<std::uint64_t> vec(cluster, {.block_size = 4});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wrong{0};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t n = vec.size();
      if (n == 0) continue;
      // Read the most recently published slot. size() only covers fully
      // written slots (in-order release publication), so the value must
      // always be a completed producer write — never 0, never torn.
      const std::uint64_t v = vec[n - 1];
      if (v < 1 || v > 4000) wrong.fetch_add(1);
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        vec.push_back(static_cast<std::uint64_t>(t) * 1000 + i + 1);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true);
  consumer.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(vec.size(), 4000u);
  drain_qsbr();
}
