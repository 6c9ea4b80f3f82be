// Property-style parameterized suites: invariants swept across block
// sizes, locale counts, epoch widths and checkpoint cadences.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/rng.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/qsbr.hpp"

namespace rt = rcua::rt;
using rcua::QsbrPolicy;
using rcua::RCUArray;

// ---------------------------------------------------------------------
// Geometry sweep: (locales, block_size) — distribution, capacity and
// content invariants must hold for every combination.
class ArrayGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>> {
};

TEST_P(ArrayGeometry, CapacityDistributionAndContentInvariants) {
  const auto [locales, block_size] = GetParam();
  rt::Cluster cluster({.num_locales = locales, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0, {block_size, nullptr});

  std::size_t expected_blocks = 0;
  for (int step = 1; step <= 5; ++step) {
    arr.resize_add(block_size * static_cast<std::size_t>(step));
    expected_blocks += static_cast<std::size_t>(step);

    // Capacity is always a whole number of blocks.
    ASSERT_EQ(arr.num_blocks(), expected_blocks);
    ASSERT_EQ(arr.capacity(), expected_blocks * block_size);
    // Round-robin placement: block k on locale k % L.
    for (std::size_t b = 0; b < expected_blocks; ++b) {
      ASSERT_EQ(arr.block_owner(b * block_size), b % locales);
    }
  }

  // Contents survive arbitrary growth.
  for (std::size_t i = 0; i < arr.capacity(); i += 7) {
    arr.write(i, i * 13 + 1);
  }
  arr.resize_add(block_size);
  for (std::size_t i = 0; i < expected_blocks * block_size; i += 7) {
    ASSERT_EQ(arr.read(i), i * 13 + 1);
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArrayGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Values(std::size_t{1}, std::size_t{16},
                                         std::size_t{64}, std::size_t{1000})),
    [](const auto& info) {
      std::string name = "L";
      name += std::to_string(std::get<0>(info.param));
      name += "_B";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---------------------------------------------------------------------
// Epoch-width sweep: the EBR protocol (Algorithm 1 + Lemma 2) must be
// correct for any unsigned epoch width, exercised through wrap-around.
template <typename EpochT>
class EbrWidth : public ::testing::Test {};

using EpochWidths =
    ::testing::Types<std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(EbrWidth, EpochWidths);

TYPED_TEST(EbrWidth, CountersBalanceAndParityHoldsThroughWraps) {
  // Start near the top of the representable range so narrow widths wrap.
  const TypeParam start = static_cast<TypeParam>(~TypeParam{0} - 5);
  rcua::reclaim::BasicEbr<TypeParam> ebr(start);
  for (int i = 0; i < 40; ++i) {
    const TypeParam before = ebr.epoch();
    ebr.read([&] {
      EXPECT_EQ(ebr.readers_at(static_cast<std::size_t>(before % 2)) +
                    ebr.readers_at(static_cast<std::size_t>((before + 1) % 2)),
                1u);
    });
    ebr.synchronize();
    EXPECT_EQ(ebr.epoch(), static_cast<TypeParam>(before + 1));
    EXPECT_EQ(ebr.readers_at(0), 0u);
    EXPECT_EQ(ebr.readers_at(1), 0u);
  }
}

TYPED_TEST(EbrWidth, ReclamationSafetyUnderConcurrency) {
  struct Canary {
    std::atomic<std::uint32_t> alive{1};
    ~Canary() { alive.store(0); }
  };
  rcua::reclaim::BasicEbr<TypeParam> ebr(static_cast<TypeParam>(~TypeParam{0}));
  std::atomic<Canary*> slot{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ebr.read([&] {
        if (slot.load(std::memory_order_acquire)->alive.load() != 1) {
          violations.fetch_add(1);
        }
      });
    }
  });
  for (int i = 0; i < 200; ++i) {
    Canary* old = slot.exchange(new Canary, std::memory_order_acq_rel);
    ebr.synchronize();
    delete old;
    if (i % 16 == 0) std::this_thread::yield();
  }
  stop.store(true);
  reader.join();
  delete slot.load();
  EXPECT_EQ(violations.load(), 0u);
}

// ---------------------------------------------------------------------
// Checkpoint cadence sweep: whatever the cadence, (a) nothing is freed
// early, (b) everything is freed eventually.
class CheckpointCadence : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointCadence, AllDeferredEventuallyFreedNeverEarly) {
  const int cadence = GetParam();
  static std::atomic<int> freed{0};
  freed.store(0);
  rcua::reclaim::Qsbr qsbr;
  struct Counted {
    ~Counted() { freed.fetch_add(1); }
  };

  constexpr int kItems = 64;
  int deferred = 0;
  for (int i = 0; i < kItems; ++i) {
    qsbr.defer_delete(new Counted);
    ++deferred;
    // Sole participant: everything deferred so far is reclaimable at a
    // checkpoint, and nothing may free without one.
    if (cadence > 0 && i % cadence == 0) {
      qsbr.checkpoint();
      EXPECT_EQ(freed.load(), deferred);
    } else {
      EXPECT_LE(freed.load(), deferred);
    }
  }
  qsbr.checkpoint();
  EXPECT_EQ(freed.load(), kItems);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CheckpointCadence,
                         ::testing::Values(0, 1, 2, 7, 16, 63),
                         [](const auto& info) {
                           std::string name = "every";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------
// Resize-increment sweep: growth by arbitrary element counts always
// rounds to blocks and never loses data.
class ResizeIncrements : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResizeIncrements, RoundsUpAndPreserves) {
  const std::size_t increment = GetParam();
  constexpr std::size_t kBlock = 32;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0, {kBlock, nullptr});

  // Each resize rounds ITS OWN increment up to whole blocks (the paper
  // only covers expansion by block multiples; our resize_add generalizes
  // by rounding per call).
  std::size_t expect_blocks = 0;
  std::size_t logical = 0;
  for (int step = 0; step < 4; ++step) {
    const std::size_t cap_before = arr.capacity();
    if (cap_before > 0) arr.write(cap_before - 1, cap_before);
    arr.resize_add(increment);
    expect_blocks += (increment + kBlock - 1) / kBlock;
    logical += increment;
    ASSERT_GE(arr.capacity(), logical);
    ASSERT_EQ(arr.num_blocks(), expect_blocks);
    if (cap_before > 0) {
      // The value written before this resize survived it.
      ASSERT_EQ(arr.read(cap_before - 1), cap_before);
    }
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResizeIncrements,
                         ::testing::Values(std::size_t{1}, std::size_t{31},
                                           std::size_t{32}, std::size_t{33},
                                           std::size_t{100}, std::size_t{512}),
                         [](const auto& info) {
                           std::string name = "inc";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------
// Reader-count sweep: the EBR read path stays correct (balanced counters,
// no lost reads) at any concurrency level.
class EbrReaderCount : public ::testing::TestWithParam<int> {};

TEST_P(EbrReaderCount, BalancedUnderNThreads) {
  const int nthreads = GetParam();
  rcua::reclaim::Ebr ebr;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ebr.read([&] { completed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  // A writer churns epochs to force verification retries.
  for (int i = 0; i < 100; ++i) {
    ebr.synchronize();
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), static_cast<std::uint64_t>(nthreads) * 500);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
  EXPECT_GE(ebr.stats().reads, completed.load());
}

INSTANTIATE_TEST_SUITE_P(Sweep, EbrReaderCount, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           std::string name = "threads";
                           name += std::to_string(info.param);
                           return name;
                         });
