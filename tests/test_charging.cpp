// Cost-model regression tests: per-operation virtual charges of each
// array implementation, computed analytically from a pinned cost table.
// These lock the calibration behind EXPERIMENTS.md — if a code change
// adds or drops a charge site, the figure shapes silently shift; these
// tests make that loud instead.

#include <gtest/gtest.h>

#include "baselines/sync_array.hpp"
#include "baselines/unsafe_array.hpp"
#include "core/rcu_array.hpp"

namespace rt = rcua::rt;
namespace sim = rcua::sim;
using rcua::EbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;

namespace {

/// Pins every relevant constant to round numbers so expectations are
/// exact integers.
void pin_costs() {
  auto& m = sim::CostModel::mutable_instance();
  m.local_cached_ns = 1;
  m.dram_miss_ns = 100;
  m.remote_get_ns = 4000;
  m.remote_put_ns = 4000;
  m.remote_stream_ns = 1000;
  m.atomic_load_ns = 2;
  m.atomic_rmw_ns = 20;
  m.rmw_transfer_ns = 500;
  m.lock_handoff_ns = 300;
  m.chapel_dsi_ns = 700;
  m.rcua_index_ns = 50;
  m.rcua_spine_miss_ns = 800;
}

struct ChargingTest : public ::testing::Test {
  sim::CostModelOverride save;
  ChargingTest() { pin_costs(); }
};

}  // namespace

TEST_F(ChargingTest, QsbrHotLoopPerOpCost) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 64, {.block_size = 64});
  arr.read(0);  // warm: pay the first-touch miss outside the measurement
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    for (int i = 0; i < 10; ++i) arr.read(0);
  }
  // Per op: rcua_index(50) + snapshot atomic_load(2) + cached access —
  // but the clock is fresh, so the FIRST op in scope pays the miss
  // (100 + spine 800); the rest are cached (1).
  const std::uint64_t expect = 10 * (50 + 2) + (100 + 800) + 9 * 1;
  EXPECT_EQ(clock.vtime_ns, expect);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, QsbrRandomAlternationPaysSpineMissEachSwitch) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 128, {.block_size = 64});
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(0);    // block 0: miss + spine
    arr.read(64);   // block 1: miss + spine
    arr.read(0);    // block 0 again: miss + spine (switched away)
  }
  EXPECT_EQ(clock.vtime_ns, 3 * (50 + 2 + 100 + 800));
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, RemoteBlockChargesGetThenStream) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  // Cache pinned off: this asserts the UNCACHED remote-read charge
  // sequence, which the nightly RCUA_CACHE_CAPACITY_BYTES sweep would
  // otherwise replace with a fill + local copies.
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, 2 * 64, {.block_size = 64, .cache_capacity_bytes = 0});
  ASSERT_EQ(arr.block_owner(64), 1u);  // remote from locale 0
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(64);  // first touch: remote GET + spine miss
    arr.read(65);  // same remote block: streamed
  }
  EXPECT_EQ(clock.vtime_ns, (50 + 2 + 4000 + 800) + (50 + 2 + 1000));
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, WriteToRemoteBlockUsesPutCost) {
  auto& m = sim::CostModel::mutable_instance();
  m.remote_put_ns = 6000;  // distinguish from GET
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 2 * 64, {.block_size = 64});
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.write(64, 1);
  }
  EXPECT_EQ(clock.vtime_ns, 50 + 2 + 6000 + 800);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, EbrAddsOneOwnedRmwAndOneStorePerOp) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 64, {.block_size = 64});
  arr.read(0);  // warm the block (no clock -> free)
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(0);
  }
  // The owned-slot EBR read path: the announce is one uncontended RMW on
  // the task's own line (atomic_rmw 20) and the retract a store to it
  // (local_cached 1). Plus snapshot atomic load inside the lambda (2),
  // index overhead 50, cached element (first in scope: miss 100 + spine
  // 800).
  EXPECT_EQ(clock.vtime_ns, 50 + (20 + 1) + 2 + 100 + 800);
}

TEST_F(ChargingTest, LegacyEbrAddsTwoReaderTransfersPerOp) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  RCUArray<std::uint64_t, rcua::LegacyEbrPolicy> arr(cluster, 64,
                                                     {.block_size = 64});
  arr.read(0);  // warm the block (no clock -> free)
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(0);
  }
  // The paper's two-counter layout models the shared EpochReaders line
  // as always-contended: 2 reader RMWs at rmw_transfer(500) each, plus
  // snapshot load (2), index overhead 50, first-in-scope miss (100) and
  // spine surcharge (800).
  EXPECT_EQ(clock.vtime_ns, 50 + 2 * 500 + 2 + 100 + 800);
}

TEST_F(ChargingTest, ChapelHasNoSpineMiss) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::baseline::UnsafeArray<std::uint64_t> arr(cluster, 128, 64);
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(0);   // miss, no spine surcharge
    arr.read(1);   // cached
  }
  EXPECT_EQ(clock.vtime_ns, (700 + 100) + (700 + 1));
}

TEST_F(ChargingTest, SyncArraySerializesWholeCriticalSections) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::baseline::SyncArray<std::uint64_t> arr(cluster, 64, 64);
  sim::TaskClock a, b;
  {
    sim::ClockScope scope(a);
    arr.read(0);
  }
  {
    sim::ClockScope scope(b);
    arr.read(0);
  }
  // b's acquisition queues behind a's whole critical section.
  EXPECT_GT(b.vtime_ns, a.vtime_ns);
}

TEST_F(ChargingTest, ResizeChargesAllocationPerBlock) {
  auto& m = sim::CostModel::mutable_instance();
  m.alloc_block_ns = 10000;
  m.lock_handoff_ns = 0;
  m.task_spawn_ns = 0;
  m.remote_execute_ns = 0;
  m.spine_copy_ns_per_block = 0;
  m.epoch_drain_ns = 0;
  m.qsbr_defer_ns = 0;
  m.atomic_rmw_ns = 0;
  m.atomic_load_ns = 0;

  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0, {.block_size = 64});
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.resize_add(3 * 64);
  }
  EXPECT_EQ(clock.vtime_ns, 3 * 10000u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, ChapelResizeCostGrowsWithExistingData) {
  auto& m = sim::CostModel::mutable_instance();
  m.bulk_copy_ns_per_elem = 100;

  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  rcua::baseline::UnsafeArray<std::uint64_t> arr(cluster, 0, 64);

  auto resize_cost = [&] {
    sim::TaskClock clock;
    sim::ClockScope scope(clock);
    arr.resize_add(64);
    return clock.vtime_ns;
  };
  const auto first = resize_cost();   // copies 0 blocks
  (void)resize_cost();                // copies 1
  (void)resize_cost();                // copies 2
  const auto fourth = resize_cost();  // copies 3 blocks
  EXPECT_GE(fourth, first + 3 * 64 * 100u);
}

TEST_F(ChargingTest, RcuResizeCostIndependentOfExistingData) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 0, {.block_size = 64});
  // One clock for every round: VirtualResource bookings (the write lock's
  // word) are absolute virtual times, only meaningful within a single
  // timeline — fresh per-round clocks would compare t=0 against the
  // previous round's bookings (see sim/resource.hpp).
  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  auto resize_cost = [&] {
    const auto before = clock.vtime_ns;
    arr.resize_add(64);
    return clock.vtime_ns - before;
  };
  const auto first = resize_cost();
  for (int i = 0; i < 20; ++i) resize_cost();
  const auto late = resize_cost();
  // Only the spine copy grows (~1ns/block); stays within noise of first.
  EXPECT_LT(late, first + 1000);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST_F(ChargingTest, CommCountersMatchChargedAccesses) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  // Cache pinned off: asserts the uncached GET/PUT counters (see
  // RemoteBlockChargesGetThenStream).
  RCUArray<std::uint64_t, QsbrPolicy> arr(
      cluster, 2 * 64, {.block_size = 64, .cache_capacity_bytes = 0});
  cluster.comm().reset();
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    arr.read(0);    // local: no comm
    arr.read(64);   // remote GET
    arr.write(64, 1);  // remote PUT
  }
  EXPECT_EQ(cluster.comm().total_gets(), 1u);
  EXPECT_EQ(cluster.comm().total_puts(), 1u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
