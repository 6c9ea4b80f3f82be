// Tier-1 coverage for the per-locale remote-block cache (rt::BlockCache
// under RCUArray, DESIGN.md §11):
//   * RCUA_CACHE_CAPACITY_BYTES / ctor-override precedence, default off,
//   * capacity 0 is bit-identical to the uncached path (comm counters
//     AND virtual time), with no cache counter ever moving,
//   * read-after-remote-write never returns stale data, on both
//     reclamation policies and from both the reading and owning locale,
//     nor after a whole-array write through fill() or DsiArray::forall,
//     while a read-only DsiArray::reduce keeps the cached copies,
//   * read() and bulk_read() share one cache: either one's fill is the
//     other's hit,
//   * a repeated hot-block scan records exactly one fill and then zero
//     further remote operations (the O(ops) -> O(hot blocks) claim, as
//     CommStats arithmetic),
//   * capacity-of-one-block thrash: eviction accounting sums to the
//     inserted bytes (ledger invariant), and entries never exceed what
//     fits,
//   * agreement with the cache off under a concurrently growing array,
//   * two arrays caching the same block indices on one cluster keep
//     their own copies, and a structural op of one leaves the other's
//     entries alone (each array owns its caches, so the key is the block
//     index alone),
//   * hot-set reads with the cache on are >= 5x faster in virtual time
//     than the uncached remote path (the tentpole acceptance number).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/dsi.hpp"
#include "core/rcu_array.hpp"
#include "reclaim/qsbr.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/cluster.hpp"
#include "runtime/comm.hpp"
#include "sim/task_clock.hpp"

namespace rt = rcua::rt;
namespace sim = rcua::sim;
using rcua::EbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;

namespace {

constexpr std::size_t kBlock = 64;
constexpr std::size_t kBlockBytes = kBlock * sizeof(std::uint64_t);

std::uint64_t pattern(std::size_t i) {
  return (static_cast<std::uint64_t>(i) * 2654435761u) ^
         0x9e3779b97f4a7c15ull;
}

template <typename ArrT>
void fill_pattern(ArrT& arr, std::size_t elems) {
  std::vector<std::uint64_t> vals(elems);
  for (std::size_t i = 0; i < elems; ++i) vals[i] = pattern(i);
  arr.bulk_write(0, std::span<const std::uint64_t>(vals.data(), elems));
}

/// Sum of a CommStats counter over every locale, as one number the
/// parity tests can EXPECT_EQ on.
struct CommTotals {
  std::uint64_t gets, puts, executes, hits, misses, fills, evictions;
  bool operator==(const CommTotals&) const = default;
};

CommTotals totals(rt::CommLayer& comm) {
  return CommTotals{comm.total_gets(),        comm.total_puts(),
                    comm.total_executes(),    comm.total_cache_hits(),
                    comm.total_cache_misses(), comm.total_cache_fills(),
                    comm.total_cache_evictions()};
}

}  // namespace

TEST(BlockCache, EnvKnobAndCtorPrecedence) {
  rt::CommLayer comm(2);
  ASSERT_EQ(setenv("RCUA_CACHE_CAPACITY_BYTES", "4096", 1), 0);
  EXPECT_EQ(rt::BlockCache::capacity_from_env(), 4096u);
  {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
    RCUArray<std::uint64_t, QsbrPolicy> from_env(cluster, 0,
                                                 {.block_size = kBlock});
    EXPECT_EQ(from_env.cache_capacity_bytes(), 4096u);
    EXPECT_TRUE(from_env.cache_enabled());
    RCUArray<std::uint64_t, QsbrPolicy> from_ctor(
        cluster, 0, {.block_size = kBlock, .cache_capacity_bytes = 0});
    EXPECT_EQ(from_ctor.cache_capacity_bytes(), 0u);  // override beats env
    EXPECT_FALSE(from_ctor.cache_enabled());
  }
  ASSERT_EQ(unsetenv("RCUA_CACHE_CAPACITY_BYTES"), 0);
  EXPECT_EQ(rt::BlockCache::capacity_from_env(), 0u);  // default: off
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, ZeroCapacityIsBitIdenticalToUncached) {
  // The cache-off parity carve-out: with capacity 0 every read takes
  // exactly the PR 6 path — same comm counters, same virtual time, and
  // no cache counter ever moves. Two identical clusters run the same
  // workload; one array pins capacity 0 explicitly, the other gets 0
  // from the (unset) environment default.
  ASSERT_EQ(unsetenv("RCUA_CACHE_CAPACITY_BYTES"), 0);
  constexpr std::size_t kElems = 8 * kBlock;
  auto run = [&](std::size_t explicit_capacity_or_env) ->
      std::pair<CommTotals, std::uint64_t> {
    rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
    typename RCUArray<std::uint64_t, QsbrPolicy>::Options o;
    o.block_size = kBlock;
    if (explicit_capacity_or_env == 0) o.cache_capacity_bytes = 0;
    RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, kElems, o);
    fill_pattern(arr, kElems);
    cluster.comm().reset();
    sim::TaskClock clock;
    std::uint64_t sum = 0;
    {
      sim::ClockScope scope(clock);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < kElems; i += 7) sum += arr.read(i);
      }
    }
    EXPECT_NE(sum, 0u);
    return {totals(cluster.comm()), clock.vtime_ns};
  };
  const auto [pinned_counters, pinned_ns] = run(0);
  const auto [env_counters, env_ns] = run(1);  // env default, also off
  EXPECT_EQ(pinned_counters, env_counters);
  EXPECT_EQ(pinned_ns, env_ns);
  EXPECT_EQ(pinned_counters.hits, 0u);
  EXPECT_EQ(pinned_counters.misses, 0u);
  EXPECT_EQ(pinned_counters.fills, 0u);
  EXPECT_EQ(pinned_counters.evictions, 0u);
  EXPECT_GT(pinned_counters.gets, 0u);  // the uncached path counts GETs
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

namespace {

template <typename Policy>
void run_read_after_write_never_stale() {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 2 * kBlock;
  RCUArray<std::uint64_t, Policy> arr(
      cluster, kElems, {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  fill_pattern(arr, kElems);
  // Element in block 1, owned by locale 1 — remote from this thread.
  const std::size_t idx = kBlock + 3;
  ASSERT_EQ(arr.block_owner(idx), 1u);

  ASSERT_EQ(arr.read(idx), pattern(idx));  // fill
  ASSERT_EQ(arr.read(idx), pattern(idx));  // hit

  // Writer on the READING locale: write-through + generation bump.
  arr.write(idx, 111);
  EXPECT_EQ(arr.read(idx), 111u) << "stale cached copy after local write";

  // Writer on the OWNING locale: the bump still invalidates locale 0's
  // copy (the stamp lives with the block, not with any one cache).
  cluster.on(1, [&] { arr.write(idx, 222); });
  EXPECT_EQ(arr.read(idx), 222u) << "stale cached copy after remote write";

  // Bulk writes bump too (per-span, after the stores land).
  std::vector<std::uint64_t> vals(kBlock, 333);
  arr.bulk_write(kBlock, std::span<const std::uint64_t>(vals.data(),
                                                        vals.size()));
  EXPECT_EQ(arr.read(idx), 333u) << "stale cached copy after bulk write";
  if constexpr (Policy::is_qsbr) {
    rcua::reclaim::Qsbr::global().flush_unsafe();
  }
}

}  // namespace

TEST(BlockCache, ReadAfterWriteNeverStaleEbr) {
  run_read_after_write_never_stale<EbrPolicy>();
}

TEST(BlockCache, ReadAfterWriteNeverStaleQsbr) {
  run_read_after_write_never_stale<QsbrPolicy>();
}

// The whole-array writers run on each block's owner through
// for_each_block_local; each bumps the block's generation after its
// stores, which keeps a copy cached on another locale from outliving the
// write.
TEST(BlockCache, FillInvalidatesCachedCopies) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, 2 * kBlock,
      {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  ASSERT_EQ(arr.block_owner(kBlock), 1u);
  arr.fill(1);
  ASSERT_EQ(arr.read(kBlock), 1u);  // caches block 1 on locale 0
  arr.fill(7);
  EXPECT_EQ(arr.read(kBlock), 7u) << "stale cached copy after fill()";
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

// A read-only visitor writes nothing, so it bumps nothing: the copy
// cached before a DsiArray::reduce is still a hit after it.
TEST(BlockCache, DsiForallInvalidatesAndReduceKeepsCachedCopies) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rcua::DsiArray<std::uint64_t, QsbrPolicy> dsi(
      cluster, 2 * kBlock,
      {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  RCUArray<std::uint64_t, QsbrPolicy>& arr = dsi.backing();
  const std::size_t idx = kBlock + 3;
  ASSERT_EQ(arr.block_owner(idx), 1u);
  dsi.forall([](std::size_t i, std::uint64_t& v) { v = i; });
  ASSERT_EQ(arr.read(idx), idx);  // caches block 1 on locale 0
  dsi.forall([](std::size_t i, std::uint64_t& v) { v = 2 * i; });
  EXPECT_EQ(arr.read(idx), 2 * idx) << "stale cached copy after forall";

  rt::CommLayer& comm = cluster.comm();
  comm.reset();
  const std::uint64_t sum = dsi.reduce(
      std::uint64_t{0},
      [](std::uint64_t acc, const std::uint64_t& v) { return acc + v; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, (2 * kBlock) * (2 * kBlock - 1));
  ASSERT_EQ(arr.read(idx), 2 * idx);
  EXPECT_EQ(comm.total_cache_hits(), 1u);
  EXPECT_EQ(comm.total_cache_fills(), 0u) << "reduce() invalidated a copy";
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, ReadAndBulkReadShareOneCache) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 8 * kBlock;  // blocks 1, 3, 5, 7 remote
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, kElems,
      {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  fill_pattern(arr, kElems);
  rt::CommLayer& comm = cluster.comm();
  const auto expect_pattern = [](const std::vector<std::uint64_t>& got,
                                 std::size_t first) {
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], pattern(first + k)) << "elem " << first + k;
    }
  };

  // A block bulk_read filled is a hit for read().
  comm.reset();
  expect_pattern(arr.bulk_read(kBlock, kBlock), kBlock);
  EXPECT_EQ(comm.total_cache_fills(), 1u);
  ASSERT_EQ(arr.read(kBlock + 5), pattern(kBlock + 5));
  EXPECT_EQ(comm.total_cache_hits(), 1u);
  EXPECT_EQ(comm.total_cache_fills(), 1u);

  // A block read() filled is a hit for bulk_read().
  ASSERT_EQ(arr.read(3 * kBlock), pattern(3 * kBlock));
  EXPECT_EQ(comm.total_cache_fills(), 2u);
  expect_pattern(arr.bulk_read(3 * kBlock, kBlock), 3 * kBlock);
  EXPECT_EQ(comm.total_cache_hits(), 2u);
  EXPECT_EQ(comm.total_cache_fills(), 2u);

  // A whole-array bulk_read fills each remaining remote block once, and
  // each fill is its one remote op; repeated, it is all hits and no
  // remote op of any kind.
  comm.reset();
  expect_pattern(arr.bulk_read(0, kElems), 0);
  EXPECT_EQ(comm.total_cache_hits(), 2u);
  EXPECT_EQ(comm.total_cache_fills(), 2u);
  EXPECT_EQ(comm.total_executes(), 2u);
  EXPECT_EQ(comm.total_gets() + comm.total_puts(), 0u);
  comm.reset();
  expect_pattern(arr.bulk_read(0, kElems), 0);
  EXPECT_EQ(comm.total_cache_hits(), 4u);
  EXPECT_EQ(comm.total_cache_misses(), 0u);
  EXPECT_EQ(comm.total_cache_fills(), 0u);
  EXPECT_EQ(comm.total_gets() + comm.total_puts() + comm.total_executes(),
            0u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, HotBlockScanFillsOnceThenZeroRemoteOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 2 * kBlock;
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, kElems, {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  fill_pattern(arr, kElems);

  // N reads of one remote block: exactly one miss -> one fill -> one
  // remote execute, then N-1 hits and nothing else on the wire.
  constexpr std::uint64_t kReads = 100;
  cluster.comm().reset();
  for (std::uint64_t r = 0; r < kReads; ++r) {
    ASSERT_EQ(arr.read(kBlock + (r % kBlock)),
              pattern(kBlock + (r % kBlock)));
  }
  rt::CommLayer& comm = cluster.comm();
  EXPECT_EQ(comm.total_cache_misses(), 1u);
  EXPECT_EQ(comm.total_cache_fills(), 1u);
  EXPECT_EQ(comm.total_executes(), 1u);  // the fill IS the remote op
  EXPECT_EQ(comm.total_cache_hits(), kReads - 1);
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_puts(), 0u);
  EXPECT_EQ(comm.total_cache_evictions(), 0u);

  // Steady state: the block is resident; a second scan is all hits and
  // ZERO remote operations of any kind.
  comm.reset();
  for (std::uint64_t r = 0; r < kReads; ++r) {
    ASSERT_EQ(arr.read(kBlock + (r % kBlock)),
              pattern(kBlock + (r % kBlock)));
  }
  EXPECT_EQ(comm.total_cache_hits(), kReads);
  EXPECT_EQ(comm.total_cache_misses(), 0u);
  EXPECT_EQ(comm.total_cache_fills(), 0u);
  EXPECT_EQ(comm.total_gets() + comm.total_puts() + comm.total_executes(),
            0u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, CapacityOneBlockThrashAndLedgerBalances) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 6 * kBlock;
  // Exactly one block fits; blocks 1, 3, 5 are remote (round-robin).
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, kElems,
      {.block_size = kBlock, .cache_capacity_bytes = kBlockBytes});
  fill_pattern(arr, kElems);
  cluster.comm().reset();

  // Alternate between two remote blocks: every read after the first of
  // a pair evicts the other block's entry.
  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_EQ(arr.read(1 * kBlock), pattern(1 * kBlock));
    ASSERT_EQ(arr.read(3 * kBlock), pattern(3 * kBlock));
  }
  rt::CommLayer& comm = cluster.comm();
  EXPECT_EQ(comm.total_cache_misses(), 2u * kRounds);
  EXPECT_EQ(comm.total_cache_fills(), 2u * kRounds);
  EXPECT_EQ(comm.total_cache_hits(), 0u);
  EXPECT_EQ(comm.total_cache_evictions(), 2u * kRounds - 1);

  const auto cs = arr.cache_stats_at(0);
  EXPECT_EQ(cs.inserted_bytes, 2u * kRounds * kBlockBytes);
  // Ledger: inserted == evicted + resident, and exactly one block is
  // resident at capacity kBlockBytes.
  EXPECT_EQ(cs.inserted_bytes,
            cs.evicted_bytes + arr.cache_bytes_used_at(0));
  EXPECT_EQ(arr.cache_bytes_used_at(0), kBlockBytes);
  EXPECT_EQ(arr.cache_entries_at(0), 1u);

  // An entry larger than the whole cache is refused outright: a tiny
  // capacity means no fill is ever inserted (but reads still work).
  RCUArray<std::uint64_t, QsbrPolicy> tiny(
      cluster, kElems, {.block_size = kBlock, .cache_capacity_bytes = 8});
  fill_pattern(tiny, kElems);
  ASSERT_EQ(tiny.read(kBlock), pattern(kBlock));
  ASSERT_EQ(tiny.read(kBlock), pattern(kBlock));
  EXPECT_EQ(tiny.cache_entries_at(0), 0u);
  EXPECT_EQ(tiny.cache_bytes_used_at(0), 0u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, AgreesWithCacheOffUnderConcurrentResizeAdd) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  constexpr std::size_t kElems = 8 * kBlock;
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, kElems, {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  fill_pattern(arr, kElems);

  std::thread grower([&arr] {
    for (int i = 0; i < 16; ++i) arr.resize_add(kBlock);
  });
  // Cached reads and uncached bulk reads of the original range must
  // agree with the pattern throughout the growth (resizes bump the
  // snapshot version, so every pinned-version tag mismatch refills).
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < kElems; i += kBlock / 2) {
      ASSERT_EQ(arr.read(i), pattern(i)) << "round " << round;
    }
    const std::vector<std::uint64_t> out = arr.bulk_read(0, kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      ASSERT_EQ(out[i], pattern(i)) << "round " << round << " elem " << i;
    }
  }
  grower.join();
  // Ledger balances on every locale after the dust settles.
  for (std::uint32_t l = 0; l < 4; ++l) {
    const auto cs = arr.cache_stats_at(l);
    EXPECT_EQ(cs.inserted_bytes,
              cs.evicted_bytes + arr.cache_bytes_used_at(l));
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, ArraysSharingBlockIndicesKeepTheirOwnCopies) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 8 * kBlock;
  using Arr = RCUArray<std::uint64_t, QsbrPolicy>;
  const Arr::Options opts{.block_size = kBlock,
                          .cache_capacity_bytes = 1u << 20};
  Arr a(cluster, kElems, opts);
  Arr b(cluster, kElems, opts);
  fill_pattern(a, kElems);
  std::vector<std::uint64_t> inverted(kElems);
  for (std::size_t i = 0; i < kElems; ++i) inverted[i] = ~pattern(i);
  b.bulk_write(0, std::span<const std::uint64_t>(inverted));

  // Every element of the first `elems` from both locales, twice: the
  // first pass fills each locale's remote blocks, the second hits them.
  const auto expect_own_values = [&](const char* when, std::size_t elems) {
    for (std::uint32_t l = 0; l < 2; ++l) {
      cluster.on(l, [&] {
        for (int pass = 0; pass < 2; ++pass) {
          for (std::size_t i = 0; i < elems; ++i) {
            ASSERT_EQ(a.read(i), pattern(i)) << when << " locale " << l;
            ASSERT_EQ(b.read(i), ~pattern(i)) << when << " locale " << l;
          }
        }
      });
    }
  };
  expect_own_values("initial", kElems);
  // Round-robin placement: locale 0 caches blocks 1, 3, 5 and 7 of each
  // array, locale 1 blocks 0, 2, 4 and 6.
  for (std::uint32_t l = 0; l < 2; ++l) {
    EXPECT_EQ(a.cache_entries_at(l), 4u);
    EXPECT_EQ(b.cache_entries_at(l), 4u);
    EXPECT_GT(a.cache_stats_at(l).hits, 0u);
    EXPECT_GT(b.cache_stats_at(l).hits, 0u);
  }

  // Keeping 5 blocks drops a's copies of blocks 5, 6 and 7 only.
  a.resize_remove(3 * kBlock);
  EXPECT_EQ(a.cache_entries_at(0), 2u);
  EXPECT_EQ(a.cache_entries_at(1), 3u);
  EXPECT_EQ(b.cache_entries_at(0), 4u);
  EXPECT_EQ(b.cache_entries_at(1), 4u);
  expect_own_values("after resize_remove", 5 * kBlock);

  // rehome replaces b's whole table, so every copy of b goes, none of a.
  ASSERT_TRUE(b.rehome(1));
  EXPECT_EQ(b.cache_entries_at(0), 0u);
  EXPECT_EQ(b.cache_entries_at(1), 0u);
  EXPECT_EQ(a.cache_entries_at(0), 2u);
  EXPECT_EQ(a.cache_entries_at(1), 3u);
  expect_own_values("after rehome", 5 * kBlock);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(BlockCache, HotSetReadsAtLeast5xFasterThanUncached) {
  // The tentpole acceptance number: a hot-set read workload (the skew
  // bench's regime) drops from O(ops) remote traffic to O(hot blocks)
  // fills, and the virtual-time speedup is >= 5x.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  constexpr std::size_t kElems = 16 * kBlock;
  constexpr std::size_t kHotBlocks = 4;  // blocks 1,3,5,7: all remote
  constexpr std::uint64_t kReads = 4000;

  auto measure = [&](std::size_t capacity) -> std::uint64_t {
    RCUArray<std::uint64_t, QsbrPolicy> arr(
        cluster, kElems,
        {.block_size = kBlock, .cache_capacity_bytes = capacity});
    fill_pattern(arr, kElems);
    cluster.comm().reset();
    sim::TaskClock clock;
    std::uint64_t sum = 0;
    {
      sim::ClockScope scope(clock);
      for (std::uint64_t r = 0; r < kReads; ++r) {
        // Rotate through a few remote "hot" blocks, like a Zipfian head
        // (odd block indices land on locale 1 under 2-locale round-robin).
        const std::size_t blk = 1 + 2 * (r % kHotBlocks);
        sum += arr.read(blk * kBlock + (r % kBlock));
      }
    }
    EXPECT_NE(sum, 0u);
    return clock.vtime_ns;
  };

  const std::uint64_t off_ns = measure(0);
  const std::uint64_t off_remote = cluster.comm().total_gets() +
                                   cluster.comm().total_executes();
  const std::uint64_t on_ns = measure(1u << 20);
  const std::uint64_t on_remote = cluster.comm().total_gets() +
                                  cluster.comm().total_executes();

  EXPECT_GE(off_ns, 5 * on_ns)
      << "uncached " << off_ns << "ns vs cached " << on_ns << "ns";
  // O(ops) -> O(hot blocks): the uncached run pays per read, the cached
  // run pays one fill per hot block.
  EXPECT_GE(off_remote, kReads);
  EXPECT_EQ(on_remote, kHotBlocks);
  EXPECT_EQ(cluster.comm().total_cache_fills(), kHotBlocks);
  EXPECT_EQ(cluster.comm().total_cache_hits(), kReads - kHotBlocks);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
