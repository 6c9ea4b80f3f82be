// Functional tests for RCUArray under both reclamation policies (typed
// test suite): construction, indexing, resizing, distribution, locality.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "core/rcu_array.hpp"

using rcua::EbrPolicy;
using rcua::HazardErasPolicy;
using rcua::IbrPolicy;
using rcua::LegacyEbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;
namespace rt = rcua::rt;

namespace {

template <typename Policy>
struct RcuArrayTyped : public ::testing::Test {
  using Array = RCUArray<std::uint64_t, Policy>;
};

using Policies =
    ::testing::Types<EbrPolicy, QsbrPolicy, IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(RcuArrayTyped, Policies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(RcuArrayTyped, EmptyConstruction) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster);
  EXPECT_EQ(arr.capacity(), 0u);
  EXPECT_EQ(arr.num_blocks(), 0u);
  EXPECT_EQ(arr.resize_count(), 0u);
}

TYPED_TEST(RcuArrayTyped, InitialCapacityRoundsUpToBlocks) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 100, {.block_size = 64});
  EXPECT_EQ(arr.block_size(), 64u);
  EXPECT_EQ(arr.num_blocks(), 2u);
  EXPECT_EQ(arr.capacity(), 128u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ZeroBlockSizeThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  using Array = typename TestFixture::Array;
  EXPECT_THROW(Array(cluster, 0, {.block_size = 0}), std::invalid_argument);
}

TYPED_TEST(RcuArrayTyped, WriteThenReadRoundTrips) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 256, {.block_size = 64});
  for (std::size_t i = 0; i < 256; ++i) arr.write(i, i * 3);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(arr.read(i), i * 3);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, IndexReturnsStableReference) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  std::uint64_t& ref = arr.index(5);
  ref = 77;
  EXPECT_EQ(arr.read(5), 77u);
  EXPECT_EQ(&arr.index(5), &ref);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, AtThrowsOutOfRange) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  EXPECT_NO_THROW(arr.at(63));
  EXPECT_THROW(arr.at(64), std::out_of_range);
  EXPECT_THROW(arr.at(1 << 20), std::out_of_range);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeGrowsAndPreservesContents) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  for (std::size_t i = 0; i < 64; ++i) arr.write(i, i + 1);
  arr.resize_add(128);
  EXPECT_EQ(arr.capacity(), 192u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(arr.read(i), i + 1);
  // New region readable and zero-initialized.
  for (std::size_t i = 64; i < 192; ++i) EXPECT_EQ(arr.read(i), 0u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeByPartialBlockRoundsUp) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 64});
  arr.resize_add(1);
  EXPECT_EQ(arr.capacity(), 64u);
  arr.resize_add(65);
  EXPECT_EQ(arr.capacity(), 192u);
  EXPECT_EQ(arr.resize_count(), 2u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ResizeZeroIsNoop) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 64, {.block_size = 64});
  arr.resize_add(0);
  EXPECT_EQ(arr.capacity(), 64u);
  EXPECT_EQ(arr.resize_count(), 1u);  // only the initial sizing
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ReserveDoublesToCoverInOneResize) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 4});
  arr.reserve(0);
  EXPECT_EQ(arr.resize_count(), 0u);
  arr.reserve(1);  // an empty array starts from one block
  EXPECT_EQ(arr.num_blocks(), 1u);
  arr.reserve(33);  // 1 -> 2 -> 4 -> 8 -> 16 blocks, one resize
  EXPECT_EQ(arr.num_blocks(), 16u);
  EXPECT_EQ(arr.resize_count(), 2u);
  arr.reserve(64);  // covered
  EXPECT_EQ(arr.resize_count(), 2u);
  typename TestFixture::Array three(cluster, 3 * 4, {.block_size = 4});
  three.reserve(13);  // doubles from the blocks it has
  EXPECT_EQ(three.num_blocks(), 6u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, ReservePastEveryDoublingThrows) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 3 * 64, {.block_size = 64});
  EXPECT_THROW(arr.reserve(SIZE_MAX), std::length_error);
  EXPECT_EQ(arr.num_blocks(), 3u);
  EXPECT_EQ(arr.resize_count(), 1u);
  arr.reserve(4 * 64);  // the throw released the write lock
  EXPECT_EQ(arr.num_blocks(), 6u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, BlocksDistributedRoundRobin) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 8 * 64, {.block_size = 64});
  // Blocks 0..7 must land on locales 0,1,2,3,0,1,2,3.
  for (std::size_t b = 0; b < 8; ++b) {
    EXPECT_EQ(arr.block_owner(b * 64), b % 4) << "block " << b;
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, RoundRobinContinuesAcrossResizes) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 0, {.block_size = 64});
  for (int step = 0; step < 6; ++step) arr.resize_add(64);  // one block each
  for (std::size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(arr.block_owner(b * 64), b % 4) << "block " << b;
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, SnapshotsReplicatedPerLocale) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  typename TestFixture::Array arr(cluster, 3 * 64, {.block_size = 64});
  arr.write(10, 555);
  // Each locale's privatized copy sees the same capacity and data.
  cluster.coforall_locales([&](std::uint32_t) {
    EXPECT_EQ(arr.view().capacity(), 3 * 64u);
    EXPECT_EQ(arr.read(10), 555u);
  });
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, LocalBlockAccessIsCommunicationFree) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  // Cache pinned off: this test asserts the UNCACHED read protocol's
  // exact comm counters, which the nightly RCUA_CACHE_CAPACITY_BYTES
  // sweep would otherwise change (a cached remote read records a fill,
  // not a GET).
  typename TestFixture::Array arr(cluster, 2 * 64,
                                  {.block_size = 64,
                                   .cache_capacity_bytes = 0});
  cluster.comm().reset();
  // Block 0 lives on locale 0; access from locale 0 must not count comm.
  ASSERT_EQ(arr.block_owner(0), 0u);
  arr.read(0);
  EXPECT_EQ(cluster.comm().total_gets(), 0u);
  // Block 1 lives on locale 1: reading it from here is one GET.
  arr.read(64);
  EXPECT_EQ(cluster.comm().total_gets(), 1u);
  // Writing it is one PUT.
  arr.write(65, 1);
  EXPECT_EQ(cluster.comm().total_puts(), 1u);
  drain_qsbr();
}

TYPED_TEST(RcuArrayTyped, DestructionFreesAllBlocksAndSpines) {
  const auto blocks_before = rcua::Block<std::uint64_t>::live_count();
  const auto spines_before = rcua::Snapshot<std::uint64_t>::live_count();
  {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
    typename TestFixture::Array arr(cluster, 4 * 64, {.block_size = 64});
    arr.resize_add(2 * 64);
    drain_qsbr();  // retired spines from the resizes
  }
  drain_qsbr();
  EXPECT_EQ(rcua::Block<std::uint64_t>::live_count(), blocks_before);
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count(), spines_before);
}

TYPED_TEST(RcuArrayTyped, AllocationAccountedToOwningLocales) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  {
    typename TestFixture::Array arr(cluster, 4 * 64, {.block_size = 64});
    EXPECT_EQ(cluster.locale(0).allocations(), 2u);
    EXPECT_EQ(cluster.locale(1).allocations(), 2u);
    EXPECT_EQ(cluster.locale(0).bytes_live(),
              2 * 64 * sizeof(std::uint64_t));
  }
  drain_qsbr();
  EXPECT_EQ(cluster.locale(0).bytes_live(), 0u);
  EXPECT_EQ(cluster.locale(1).bytes_live(), 0u);
}

TEST(RcuArrayPolicy, PolicyNamesAndFlags) {
  EXPECT_STREQ(EbrPolicy::name, "EBR");
  EXPECT_STREQ(QsbrPolicy::name, "QSBR");
  const bool ebr_flag = RCUArray<int, EbrPolicy>::uses_qsbr;
  const bool qsbr_flag = RCUArray<int, QsbrPolicy>::uses_qsbr;
  EXPECT_FALSE(ebr_flag);
  EXPECT_TRUE(qsbr_flag);
}

TEST(RcuArrayEbr, ReadsGoThroughEpochProtocol) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 64, {.block_size = 64});
  for (int i = 0; i < 10; ++i) arr.read(0);
  EXPECT_GE(arr.ebr_stats_at(0).reads, 10u);
}

TEST(RcuArrayQsbr, MoreThan4096ArraysLiveOnOneCluster) {
  // Each array keeps its own per-locale copies, so nothing caps how many
  // arrays one cluster holds.
  constexpr std::size_t kArrays = 4097;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  std::vector<std::unique_ptr<RCUArray<std::uint64_t>>> arrays;
  arrays.reserve(kArrays);
  for (std::size_t a = 0; a < kArrays; ++a) {
    arrays.push_back(std::make_unique<RCUArray<std::uint64_t>>(
        cluster, 0, RCUArray<std::uint64_t>::Options{.block_size = 8}));
  }
  for (std::size_t a : {std::size_t{0}, kArrays - 1}) {
    arrays[a]->resize_add(16);
    arrays[a]->write(9, a);
    EXPECT_EQ(arrays[a]->read(9), a);
  }
  arrays.clear();
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(RcuArrayQsbr, ResizeDefersOldSpines) {
  rcua::reclaim::Qsbr qsbr;
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0,
                                          {.block_size = 64, .qsbr = &qsbr});
  const auto before = qsbr.stats().defers;
  arr.resize_add(64);
  // One old spine deferred per locale.
  EXPECT_EQ(qsbr.stats().defers, before + 2);
}

// ---------------------------------------------------------------------
// Every policy, including the paper's legacy EBR layout: the element
// bounds rule and the grace periods each structural op pays.
// ---------------------------------------------------------------------

namespace {

template <typename Policy>
struct RcuArrayAllPolicies : public ::testing::Test {
  using Array = RCUArray<std::uint64_t, Policy>;
};

using AllPolicies = ::testing::Types<QsbrPolicy, EbrPolicy, LegacyEbrPolicy,
                                     IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(RcuArrayAllPolicies, AllPolicies);

/// Per-locale grace-period counters of one array (EBR-family Stats have
/// no era fields; those stay zero).
struct GraceCounts {
  std::uint64_t advances = 0;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::uint64_t scans = 0;
  bool operator==(const GraceCounts&) const = default;
};

template <typename Array>
GraceCounts grace_counts_at(const Array& arr, std::uint32_t l) {
  const auto s = arr.ebr_stats_at(l);
  GraceCounts c;
  c.advances = s.epoch_advances;
  if constexpr (requires { s.era_scans; }) {
    c.retired = s.retired;
    c.freed = s.freed;
    c.scans = s.era_scans;
  }
  return c;
}

GraceCounts operator-(const GraceCounts& a, const GraceCounts& b) {
  return {a.advances - b.advances, a.retired - b.retired, a.freed - b.freed,
          a.scans - b.scans};
}

}  // namespace

TYPED_TEST(RcuArrayAllPolicies, OutOfRangeElementOpsThrowAndLeaveNoSection) {
  // Every element op checks its index inside the read section, cached or
  // not, and the throw must release the section: a leaked announcement or
  // era reservation would hold the spine retired below pending forever.
  for (const std::size_t cache : {std::size_t{0}, std::size_t{1} << 20}) {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
    rcua::reclaim::StallMonitor monitor(/*budget_bytes=*/0, /*deadline_ns=*/1);
    monitor.set_sink(nullptr);
    typename TestFixture::Array::Options opts;
    opts.block_size = 64;
    opts.cache_capacity_bytes = cache;
    opts.stall_monitor = &monitor;
    typename TestFixture::Array arr(cluster, 128, opts);
    const std::size_t cap = arr.capacity();
    EXPECT_THROW((void)arr.index(cap), std::out_of_range) << cache;
    EXPECT_THROW((void)arr.read(cap), std::out_of_range) << cache;
    EXPECT_THROW(arr.write(cap, 1), std::out_of_range) << cache;
    EXPECT_THROW((void)arr.at(cap), std::out_of_range) << cache;
    EXPECT_THROW((void)arr.block_owner(cap), std::out_of_range) << cache;
    {
      // The view keeps its section after the throw; it ends with the view.
      auto view = arr.view();
      EXPECT_THROW((void)view[cap], std::out_of_range) << cache;
    }
    arr.resize_add(64);
    arr.reclaim_overflow();
    EXPECT_EQ(arr.reclaim_pending_objects(), 0u) << cache;
    EXPECT_EQ(arr.read(cap), 0u) << cache;
  }
  drain_qsbr();
}

TYPED_TEST(RcuArrayAllPolicies, StructuralOpsPayFixedGracePeriods) {
  // What one resize_add, resize_remove and rehome cost each locale's
  // reclaimer (EBR epochs; IBR/HE era advances, retires, frees, scans) or
  // the QSBR domain (deferrals), with no reader in flight.
  constexpr std::uint32_t kLocales = 4;
  rcua::reclaim::Qsbr qsbr;
  rt::Cluster cluster({.num_locales = kLocales, .workers_per_locale = 1});
  typename TestFixture::Array::Options opts;
  opts.block_size = 64;
  opts.qsbr = &qsbr;
  typename TestFixture::Array arr(cluster, 8 * 64, opts);

  const bool qsbr_policy = TestFixture::Array::uses_qsbr;
  const bool era_policy = TestFixture::Array::uses_interval;
  const GraceCounts none{};
  // resize_add, resize_remove, rehome — per locale.
  const GraceCounts add = qsbr_policy  ? none
                          : era_policy ? GraceCounts{1, 1, 1, 1}
                                       : GraceCounts{1, 0, 0, 0};
  const GraceCounts remove = qsbr_policy  ? none
                             : era_policy ? GraceCounts{2, 1, 1, 2}
                                          : GraceCounts{1, 0, 0, 0};
  const GraceCounts& rehome = remove;
  // QSBR: one spine per locale, plus the dropped (1) or moved (6) blocks.
  const std::uint64_t defers[3] = {qsbr_policy ? kLocales : 0,
                                   qsbr_policy ? kLocales + 1 : 0,
                                   qsbr_policy ? kLocales + 6 : 0};

  std::uint64_t op = 0;
  for (const GraceCounts& expect : {add, remove, rehome}) {
    std::vector<GraceCounts> before;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      before.push_back(grace_counts_at(arr, l));
    }
    const std::uint64_t defers_before = qsbr.stats().defers;
    if (op == 0) {
      arr.resize_add(64);
    } else if (op == 1) {
      arr.resize_remove(64);
    } else {
      ASSERT_TRUE(arr.rehome(1));
    }
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      EXPECT_EQ(grace_counts_at(arr, l) - before[l], expect)
          << "op " << op << " locale " << l;
    }
    EXPECT_EQ(qsbr.stats().defers - defers_before, defers[op]) << "op " << op;
    ++op;
  }
  qsbr.flush_unsafe();
}

TYPED_TEST(RcuArrayAllPolicies, StructuralOpsDropTheCachedCopiesTheyReplace) {
  // The eviction interlock of the one spine publication (DESIGN.md §11):
  // resize_add frees no block and drops no cached copy, resize_remove
  // drops the copies at or past the kept prefix, and rehome drops every
  // copy of the array. Each locale's byte ledger balances after each op.
  constexpr std::uint32_t kLocales = 2;
  constexpr std::size_t kBlock = 64;
  rcua::reclaim::Qsbr qsbr;
  rt::Cluster cluster({.num_locales = kLocales, .workers_per_locale = 1});
  typename TestFixture::Array::Options opts;
  opts.block_size = kBlock;
  opts.qsbr = &qsbr;
  opts.cache_capacity_bytes = std::size_t{1} << 20;
  typename TestFixture::Array arr(cluster, 8 * kBlock, opts);
  // Round-robin placement: locale 0 caches blocks 1, 3, 5 and 7, and
  // locale 1 caches blocks 0, 2, 4 and 6.
  for (std::uint32_t l = 0; l < kLocales; ++l) {
    cluster.on(l, [&] {
      for (std::size_t b = 0; b < 8; ++b) (void)arr.read(b * kBlock);
    });
  }
  // Cached copies per locale after resize_add (9 blocks), resize_remove
  // (6 blocks kept: blocks 6 and 7 go) and rehome.
  const std::size_t entries[3] = {4, 3, 0};
  for (int op = 0; op < 3; ++op) {
    if (op == 0) {
      arr.resize_add(kBlock);
    } else if (op == 1) {
      arr.resize_remove(3 * kBlock);
    } else {
      ASSERT_TRUE(arr.rehome(1));
    }
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      EXPECT_EQ(arr.cache_entries_at(l), entries[op])
          << "op " << op << " locale " << l;
      const auto cs = arr.cache_stats_at(l);
      EXPECT_EQ(cs.inserted_bytes,
                cs.evicted_bytes + arr.cache_bytes_used_at(l))
          << "op " << op << " locale " << l;
    }
  }
  qsbr.flush_unsafe();
}

// A std::atomic element is read and written as its value type, relaxed,
// from every locale; with the cache on, a remote read goes through the
// cache and a later write() invalidates the cached copy.
TEST(RcuArrayAtomicElements, ReadWriteFromEveryLocale) {
  using Word = std::atomic<std::uint64_t>;
  for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    SCOPED_TRACE(cache_bytes);
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
    RCUArray<Word> arr(cluster, 4 * 16,
                       {.block_size = 16, .cache_capacity_bytes = cache_bytes});
    static_assert(std::is_same_v<decltype(arr.read(0)), std::uint64_t>);
    for (std::uint64_t round = 1; round <= 2; ++round) {
      // Round 1 fills the caches; round 2's writes must invalidate them.
      for (std::uint32_t l = 0; l < 2; ++l) {
        cluster.on(l, [&] {
          for (std::size_t i = l; i < arr.capacity(); i += 2) {
            arr.write(i, round * 1000 + i);
          }
        });
      }
      for (std::uint32_t l = 0; l < 2; ++l) {
        cluster.on(l, [&] {
          for (std::size_t i = 0; i < arr.capacity(); ++i) {
            ASSERT_EQ(arr.read(i), round * 1000 + i) << "locale " << l;
          }
        });
      }
    }
    EXPECT_EQ(arr.cache_enabled(), cache_bytes != 0);
    rcua::reclaim::Qsbr::global().flush_unsafe();
  }
}
