// Tests for DsiArray — the DSI-style logical-domain layer (the paper's
// final future-work item).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "algorithms/histogram.hpp"
#include "core/dsi.hpp"

namespace rt = rcua::rt;
using rcua::DsiArray;
using rcua::EbrPolicy;
using rcua::HazardErasPolicy;
using rcua::IbrPolicy;
using rcua::QsbrPolicy;

namespace {

template <typename Policy>
struct DsiTyped : public ::testing::Test {
  using Array = DsiArray<std::uint64_t, Policy>;
};
using Policies =
    ::testing::Types<EbrPolicy, QsbrPolicy, IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(DsiTyped, Policies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(DsiTyped, LogicalSizeIndependentOfBlockRounding) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 100, {.block_size = 64});
  EXPECT_EQ(arr.size(), 100u);
  EXPECT_EQ(arr.capacity(), 128u);  // rounded to blocks underneath
  EXPECT_NO_THROW(arr.at(99));
  EXPECT_THROW(arr.at(100), std::out_of_range);  // capacity is not size
  drain_qsbr();
}

TYPED_TEST(DsiTyped, ResizeGrowsByElements) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 10, {.block_size = 64});
  arr.write(9, 99);
  arr.resize(200);
  EXPECT_EQ(arr.size(), 200u);
  EXPECT_GE(arr.capacity(), 200u);
  EXPECT_EQ(arr.read(9), 99u);
  arr.write(199, 1);
  EXPECT_EQ(arr.read(199), 1u);
  drain_qsbr();
}

TYPED_TEST(DsiTyped, ResizeShrinksAndReleasesWholeBlocks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 4 * 64, {.block_size = 64});
  arr.resize(65);  // still needs 2 blocks
  EXPECT_EQ(arr.size(), 65u);
  EXPECT_EQ(arr.backing().num_blocks(), 2u);
  arr.resize(10);  // 1 block
  EXPECT_EQ(arr.backing().num_blocks(), 1u);
  drain_qsbr();
}

TYPED_TEST(DsiTyped, OwnerMatchesBlockCyclicLayout) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 6 * 32, {.block_size = 32});
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr.owner_of(i), (i / 32) % 3);
  }
  drain_qsbr();
}

TYPED_TEST(DsiTyped, LocalIndicesCoverDomainExactlyOnce) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  auto expect_exact_cover = [&](typename TestFixture::Array& arr) {
    std::vector<int> covered(arr.size(), 0);
    for (std::uint32_t l = 0; l < 3; ++l) {
      for (const auto& [lo, hi] : arr.local_indices(l)) {
        for (std::size_t i = lo; i < hi; ++i) {
          ++covered[i];
          EXPECT_EQ(arr.owner_of(i), l);
        }
      }
    }
    for (int c : covered) EXPECT_EQ(c, 1);
  };
  typename TestFixture::Array arr(cluster, 200, {.block_size = 32});
  expect_exact_cover(arr);
  // A shrink keeps the round-robin cursor, so the regrown block 2 lands
  // on locale 0, not on 2 % 3.
  typename TestFixture::Array regrown(cluster, 0, {.block_size = 4});
  regrown.resize(12);
  regrown.resize(8);
  regrown.resize(12);
  expect_exact_cover(regrown);
  drain_qsbr();
}

TYPED_TEST(DsiTyped, ForallVisitsEveryLogicalIndexOnce) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 150, {.block_size = 32});
  arr.forall([](std::size_t i, std::uint64_t& v) { v = i * 2; });
  for (std::size_t i = 0; i < 150; ++i) EXPECT_EQ(arr.read(i), i * 2);
  // Partial tail block: elements beyond size() untouched.
  EXPECT_EQ(arr.backing().read(150), 0u);
  drain_qsbr();
}

TYPED_TEST(DsiTyped, ForallRunsWithLocality) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 6 * 32, {.block_size = 32});
  std::atomic<std::uint64_t> misplaced{0};
  arr.forall([&](std::size_t i, std::uint64_t&) {
    if (rt::this_task().locale_id != (i / 32) % 3) misplaced.fetch_add(1);
  });
  EXPECT_EQ(misplaced.load(), 0u);
  drain_qsbr();
}

TYPED_TEST(DsiTyped, ReduceRespectsLogicalBound) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 100, {.block_size = 64});
  arr.backing().fill(1);  // fills the full 128-element capacity
  const auto sum = arr.reduce(
      std::uint64_t{0},
      [](std::uint64_t acc, const std::uint64_t& v) { return acc + v; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, 100u);  // only the logical 100, not the capacity 128
  drain_qsbr();
}

// One fold, two entry points: the logical reduce is the array's reduce
// over the logical size, so they agree for any `init` (8 blocks of 16 on
// 4 locales; a per-block seed once made `init` 1 read 9 against 5).
TYPED_TEST(DsiTyped, ReduceAgreesWithTheArrayReduce) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  typename TestFixture::Array arr(cluster, 128, {.block_size = 16});
  ASSERT_EQ(arr.backing().num_blocks(), 8u);
  arr.forall([](std::size_t i, std::uint64_t& v) { v = i; });
  const auto add = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  const auto fold = [](std::uint64_t acc, const std::uint64_t& v) {
    return acc + v;
  };
  EXPECT_EQ(arr.reduce(std::uint64_t{0}, fold, add), 127u * 128 / 2);
  EXPECT_EQ(arr.reduce(std::uint64_t{0}, fold, add),
            arr.backing().reduce(std::uint64_t{0}, fold, add));
  EXPECT_EQ(arr.reduce(std::uint64_t{1}, fold, add),
            arr.backing().reduce(std::uint64_t{1}, fold, add));
  drain_qsbr();
}

TEST(Dsi, WriteInvalidatesCachedCopiesOnOtherLocales) {
  // Block 1 (indices 16..31) lives on locale 1, so the histogram on
  // locale 0 caches a copy of it. write() must bump the block's write
  // generation like RCUArray::write, or the next pass serves the copy
  // cached before the store.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  DsiArray<std::uint64_t> arr(
      cluster, 64, {.block_size = 16, .cache_capacity_bytes = 1 << 20});
  ASSERT_EQ(arr.owner_of(16), 1u);
  // Bucket 0 counts the zeros, bucket 1 everything else.
  const auto bucket = [](std::uint64_t v) -> std::size_t { return v != 0; };
  const auto zeros_and_others = [&] {
    return rcua::alg::histogram(arr, 2, bucket);
  };
  EXPECT_EQ(zeros_and_others(), (std::vector<std::uint64_t>{64, 0}));
  arr.write(16, 42);
  EXPECT_EQ(zeros_and_others(), (std::vector<std::uint64_t>{63, 1}));
  EXPECT_EQ(arr.read(16), 42u);
  const std::vector<std::uint64_t> all = arr.backing().bulk_read(0, 64);
  EXPECT_EQ(std::accumulate(all.begin(), all.end(), std::uint64_t{0}), 42u);
  drain_qsbr();
}

TEST(Dsi, ValueOpsOnAtomicElements) {
  // An atomic element is read and written as its value type, as in
  // RCUArray's value ops.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  DsiArray<std::atomic<std::uint64_t>> arr(cluster, 40, {.block_size = 16});
  arr.write(33, 7);
  EXPECT_EQ(arr.read(33), 7u);
  EXPECT_THROW(arr.write(40, 1), std::out_of_range);
  EXPECT_THROW((void)arr.read(40), std::out_of_range);
  drain_qsbr();
}

TEST(Dsi, ConcurrentReadersDuringResize) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 3});
  DsiArray<std::uint64_t, QsbrPolicy> arr(cluster, 64, {.block_size = 64});
  for (std::size_t i = 0; i < 64; ++i) arr.write(i, i + 1);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t i = reads.load() % 64;
      if (arr.read(i) != i + 1) bad.fetch_add(1);
      reads.fetch_add(1, std::memory_order_relaxed);
      if (reads.load() % 128 == 0) rcua::reclaim::Qsbr::global().checkpoint();
    }
    rcua::reclaim::Qsbr::global().checkpoint();
  });
  for (int r = 0; r < 20; ++r) {
    arr.resize(64 + (r + 1) * 50);
    std::this_thread::yield();
  }
  while (reads.load() < 500) std::this_thread::yield();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(arr.size(), 64u + 20 * 50);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
