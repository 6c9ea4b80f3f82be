// Tests for the baseline arrays: UnsafeArray (ChapelArray), SyncArray,
// RwlockArray, HazardArray.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baselines/hazard_array.hpp"
#include "baselines/rwlock_array.hpp"
#include "baselines/sync_array.hpp"
#include "baselines/unsafe_array.hpp"

namespace rt = rcua::rt;
using rcua::baseline::HazardArray;
using rcua::baseline::RwlockArray;
using rcua::baseline::SyncArray;
using rcua::baseline::UnsafeArray;

TEST(UnsafeArray, BasicReadWrite) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  UnsafeArray<std::uint64_t> arr(cluster, 128, 64);
  EXPECT_EQ(arr.capacity(), 128u);
  for (std::size_t i = 0; i < 128; ++i) arr.write(i, i * 2);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_EQ(arr.read(i), i * 2);
}

TEST(UnsafeArray, AtThrowsPastCapacity) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  UnsafeArray<std::uint64_t> arr(cluster, 64, 64);
  EXPECT_NO_THROW(arr.at(63));
  EXPECT_THROW(arr.at(64), std::out_of_range);
}

TEST(UnsafeArray, ResizeCopiesContents) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  UnsafeArray<std::uint64_t> arr(cluster, 128, 64);
  for (std::size_t i = 0; i < 128; ++i) arr.write(i, i + 9);
  arr.resize_add(64);
  EXPECT_EQ(arr.capacity(), 192u);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_EQ(arr.read(i), i + 9);
  for (std::size_t i = 128; i < 192; ++i) EXPECT_EQ(arr.read(i), 0u);
}

TEST(UnsafeArray, ResizeReallocatesBlocks) {
  // Unlike RCUArray, the copy-resize replaces the storage — references
  // obtained before a resize are NOT stable. This is the design contrast
  // the paper exploits; assert it so the contrast stays real.
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  UnsafeArray<std::uint64_t> arr(cluster, 64, 64);
  std::uint64_t* before = &arr.index(0);
  arr.resize_add(64);
  EXPECT_NE(&arr.index(0), before);
}

TEST(UnsafeArray, BlockCyclicDistribution) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  UnsafeArray<std::uint64_t> arr(cluster, 6 * 64, 64);
  for (std::size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(arr.block_owner(b * 64), b % 3);
  }
}

TEST(UnsafeArray, RemoteAccessCountsComm) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  UnsafeArray<std::uint64_t> arr(cluster, 2 * 64, 64);
  cluster.comm().reset();
  arr.read(0);   // local block
  arr.read(64);  // remote block
  EXPECT_EQ(cluster.comm().total_gets(), 1u);
}

TEST(UnsafeArray, NoBlockLeaksAcrossResizes) {
  const auto before = rcua::Block<std::uint64_t>::live_count();
  {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
    UnsafeArray<std::uint64_t> arr(cluster, 64, 64);
    for (int i = 0; i < 5; ++i) arr.resize_add(64);
  }
  EXPECT_EQ(rcua::Block<std::uint64_t>::live_count(), before);
}

TEST(SyncArray, ReadWriteResize) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  SyncArray<std::uint64_t> arr(cluster, 128, 64);
  arr.write(5, 55);
  EXPECT_EQ(arr.read(5), 55u);
  arr.resize_add(64);
  EXPECT_EQ(arr.capacity(), 192u);
  EXPECT_EQ(arr.read(5), 55u);
}

TEST(SyncArray, EveryOperationAcquiresTheLock) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  SyncArray<std::uint64_t> arr(cluster, 64, 64);
  const auto base = arr.lock().acquisitions();
  arr.read(0);
  arr.write(0, 1);
  arr.resize_add(64);
  EXPECT_EQ(arr.lock().acquisitions(), base + 3);
}

TEST(SyncArray, SafeUnderConcurrentMixedOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  SyncArray<std::uint64_t> arr(cluster, 128, 64);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> bad{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (t == 0 && i % 50 == 0) {
          arr.resize_add(64);
        } else {
          arr.write(static_cast<std::size_t>(i % 128),
                    static_cast<std::uint64_t>(i % 128) + 1);
          const auto v = arr.read(static_cast<std::size_t>(i % 128));
          if (v != 0 && v != static_cast<std::uint64_t>(i % 128) + 1 &&
              v > 128) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(RwlockArray, BasicOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RwlockArray<std::uint64_t> arr(cluster, 128, 64);
  arr.write(3, 33);
  EXPECT_EQ(arr.read(3), 33u);
  arr.resize_add(64);
  EXPECT_EQ(arr.capacity(), 192u);
  EXPECT_EQ(arr.read(3), 33u);
}

TEST(RwlockArray, ConcurrentReadersWithResizer) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RwlockArray<std::uint64_t> arr(cluster, 128, 64);
  for (std::size_t i = 0; i < 128; ++i) arr.write(i, i + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (arr.read(i % 128) != (i % 128) + 1) bad.fetch_add(1);
        ++i;
      }
    });
  }
  for (int r = 0; r < 10; ++r) arr.resize_add(64);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(HazardArray, BasicOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  rcua::reclaim::HazardDomain dom;
  HazardArray<std::uint64_t> arr(cluster, 128, 64, &dom);
  arr.write(7, 77);
  EXPECT_EQ(arr.read(7), 77u);
  arr.resize_add(64);
  EXPECT_EQ(arr.capacity(), 192u);
  EXPECT_EQ(arr.read(7), 77u);
  dom.flush_unsafe();
}

TEST(HazardArray, OutOfRangeThrowsInsteadOfReadingPastTheSpine) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rcua::reclaim::HazardDomain dom;
  HazardArray<std::uint64_t> arr(cluster, 32, 16, &dom);
  const std::size_t cap = arr.capacity();
  EXPECT_THROW((void)arr.read(cap), std::out_of_range);
  EXPECT_THROW(arr.write(cap, 1), std::out_of_range);
  EXPECT_THROW((void)arr.read(1000), std::out_of_range);
  arr.write(cap - 1, 5);
  EXPECT_EQ(arr.read(cap - 1), 5u);
  dom.flush_unsafe();
}

TEST(HazardArray, ConcurrentReadsWithResizes) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  rcua::reclaim::HazardDomain dom;
  dom.set_retire_threshold(2);
  HazardArray<std::uint64_t> arr(cluster, 128, 64, &dom);
  for (std::size_t i = 0; i < 128; ++i) arr.write(i, i ^ 0x77);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (arr.read(i % 128) != ((i % 128) ^ 0x77)) bad.fetch_add(1);
        ++i;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int r = 0; r < 25; ++r) {
    arr.resize_add(64);
    std::this_thread::yield();
  }
  while (reads.load() < 500) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  dom.flush_unsafe();
}

TEST(HazardArray, RetiredSpinesEventuallyFreed) {
  const auto base = rcua::Snapshot<std::uint64_t>::live_count();
  {
    rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
    rcua::reclaim::HazardDomain dom;
    dom.set_retire_threshold(1);  // scan on every retire
    HazardArray<std::uint64_t> arr(cluster, 64, 64, &dom);
    for (int i = 0; i < 5; ++i) arr.resize_add(64);
    // No guards live: every retired spine must already be gone; only the
    // current one remains.
    EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count() - base, 1u);
  }
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count(), base);
}
