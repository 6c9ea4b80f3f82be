// Concurrency tests for RCUArray: reads/updates racing resizes, the
// lost-update property (Lemma 6), snapshot liveness (Lemma 1), and
// QSBR checkpoint integration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/rng.hpp"

using rcua::EbrPolicy;
using rcua::HazardErasPolicy;
using rcua::IbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;
namespace rt = rcua::rt;

namespace {

template <typename Policy>
struct RcuArrayConc : public ::testing::Test {
  using Array = RCUArray<std::uint64_t, Policy>;
};

using Policies =
    ::testing::Types<EbrPolicy, QsbrPolicy, IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(RcuArrayConc, Policies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(RcuArrayConc, ReadersRunConcurrentlyWithResizes) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 3});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  for (std::size_t i = 0; i < 64; ++i) arr.write(i, i ^ 0xABCD);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      rcua::plat::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t i = rng.next_below(64);  // always-valid region
        if (arr.read(i) != (i ^ 0xABCD)) bad.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (TestFixture::Array::uses_qsbr && (reads.load() % 64 == 0)) {
          rcua::reclaim::Qsbr::global().checkpoint();
        }
      }
      if (TestFixture::Array::uses_qsbr) {
        rcua::reclaim::Qsbr::global().checkpoint();
      }
    });
  }

  for (int r = 0; r < 40; ++r) {
    arr.resize_add(64);
    std::this_thread::yield();
  }
  while (reads.load() < 1000) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(arr.capacity(), 64u + 40 * 64u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayConc, UpdatesThroughReferencesSurviveResize) {
  // Lemma 6 end-to-end: take a reference, resize underneath it, write
  // through the old reference, and observe the write through the new
  // snapshot on every locale.
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 3 * 64, {.block_size = 64});

  std::uint64_t& ref = arr.index(100);
  arr.resize_add(3 * 64);  // clone + swap on every locale
  ref = 4242;              // write through the pre-resize reference

  cluster.coforall_locales(
      [&](std::uint32_t) { EXPECT_EQ(arr.read(100), 4242u); });
  drain_qsbr();
}

TYPED_TEST(RcuArrayConc, ConcurrentWritersToDistinctSlotsAllLand) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  constexpr std::size_t kPerTask = 512;
  typename TestFixture::Array arr(cluster, 4 * kPerTask, {.block_size = 256});

  cluster.coforall_tasks(2, [&](std::uint32_t l, std::uint32_t t) {
    const std::size_t base = (l * 2 + t) * kPerTask;
    for (std::size_t i = 0; i < kPerTask; ++i) {
      arr.write(base + i, base + i + 7);
    }
  });
  for (std::size_t i = 0; i < 4 * kPerTask; ++i) {
    ASSERT_EQ(arr.read(i), i + 7);
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayConc, ResizersSerializeViaWriteLock) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 3});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 64});
  std::vector<std::thread> resizers;
  for (int t = 0; t < 4; ++t) {
    resizers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) arr.resize_add(64);
    });
  }
  for (auto& t : resizers) t.join();
  EXPECT_EQ(arr.capacity(), 40 * 64u);
  EXPECT_EQ(arr.resize_count(), 40u);
  EXPECT_GE(arr.write_lock().acquisitions(), 40u);
  drain_qsbr();
}

TEST(RcuArrayEbrConc, AtMostTwoSpinesPerLocaleDuringStress) {
  // Lemma 1: with EBR (synchronous reclamation) a resize holds at most
  // two live spines per locale; between resizes exactly one.
  const auto base = rcua::Snapshot<std::uint64_t>::live_count();
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 3});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 64, {.block_size = 64});

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_seen{0};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto live = rcua::Snapshot<std::uint64_t>::live_count() - base;
      std::uint64_t prev = max_seen.load();
      while (live > prev && !max_seen.compare_exchange_weak(prev, live)) {
      }
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 30; ++i) arr.resize_add(64);
  stop.store(true);
  observer.join();

  // 2 locales x at most 2 live spines each, mid-swap.
  EXPECT_LE(max_seen.load(), 4u);
  // Quiescent: exactly one spine per locale.
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count() - base, 2u);
}

TEST(RcuArrayEbrConc, ReadersNeverSeeTornCapacity) {
  // Snapshots are immutable: a reader's view of num_blocks can only be
  // one of the published spine lengths, never an intermediate state.
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 3});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 64, {.block_size = 64});

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> observations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::size_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t n = arr.view().num_blocks();
        if (n < last) bad.fetch_add(1);  // capacity must be monotone
        last = n;
        observations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 50; ++i) arr.resize_add(64);
  while (observations.load() < 500) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(RcuArrayQsbrConc, SpinesAccumulateUntilCheckpoint) {
  const auto base = rcua::Snapshot<std::uint64_t>::live_count();
  rcua::reclaim::Qsbr qsbr;
  {
    rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
    RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0,
                                            {.block_size = 64, .qsbr = &qsbr});
    for (int i = 0; i < 5; ++i) arr.resize_add(64);
    // 5 retired spines + 1 current. Workers may have flushed some at
    // park (paper behaviour), so live count is between 1 and 6.
    const auto live = rcua::Snapshot<std::uint64_t>::live_count() - base;
    EXPECT_GE(live, 1u);
    EXPECT_LE(live, 6u);
  }
  qsbr.flush_unsafe();
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count(), base);
}

TEST(RcuArrayStress, MixedReadUpdateResizeWorkload) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 256, {.block_size = 128});

  // Invariant: every slot holds either 0 or a value encoding its index.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> ops{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      rcua::plat::Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7 + 1);
      int local_ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t cap = arr.capacity();
        const std::size_t i = rng.next_below(cap);
        if (rng.next_below(2) == 0) {
          arr.write(i, (i << 8) | 0x5A);
        } else {
          const std::uint64_t v = arr.read(i);
          if (v != 0 && v != ((static_cast<std::uint64_t>(i) << 8) | 0x5A)) {
            violations.fetch_add(1);
          }
        }
        ops.fetch_add(1, std::memory_order_relaxed);
        if (++local_ops % 128 == 0) {
          rcua::reclaim::Qsbr::global().checkpoint();
        }
      }
      rcua::reclaim::Qsbr::global().checkpoint();
    });
  }
  for (int r = 0; r < 20; ++r) {
    arr.resize_add(128);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (ops.load() < 5000) std::this_thread::yield();
  stop.store(true);
  for (auto& t : workers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(arr.capacity(), 256u + 20 * 128u);
  drain_qsbr();
}
