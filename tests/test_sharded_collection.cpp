// Functional tests for the sharded service layer (DESIGN.md §14):
// block-cyclic routing, growth dealt across shards, placement-table
// remaps, live migration through RCUArray::rehome, the
// PressureMonitor rebalancing policy, and the chaos scenario — a
// FaultPlan kills the destination locale mid-migration and the move
// must roll back with no lost or duplicated elements.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"
#include "scoped_env.hpp"
#include "service/pressure.hpp"
#include "service/sharded_collection.hpp"
#include "util/env.hpp"

using rcua::EbrPolicy;
using rcua::HazardErasPolicy;
using rcua::IbrPolicy;
using rcua::QsbrPolicy;
namespace rt = rcua::rt;
namespace svc = rcua::svc;
using rcua::test::ScopedEnv;

namespace {

template <typename Policy>
struct ShardedTyped : public ::testing::Test {
  using Coll = svc::ShardedCollection<std::uint64_t, Policy>;
  using Monitor = svc::PressureMonitor<std::uint64_t, Policy>;
};

using Policies =
    ::testing::Types<EbrPolicy, QsbrPolicy, IbrPolicy, HazardErasPolicy>;
TYPED_TEST_SUITE(ShardedTyped, Policies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(ShardedTyped, ConstructionAndInitialPlacement) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  {
    typename TestFixture::Coll coll(cluster, 0,
                                    {.block_size = 64, .shard_count = 4});
    EXPECT_EQ(coll.shard_count(), 4u);
    EXPECT_EQ(coll.block_size(), 64u);
    EXPECT_EQ(coll.capacity(), 0u);
    EXPECT_EQ(coll.num_blocks(), 0u);
    EXPECT_EQ(coll.map_version(), 0u);
    // Balanced block-cyclic start: shard s homed on locale s % L.
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(coll.home_of(s), s % 2);
      EXPECT_EQ(coll.shard(s).home_locale(), s % 2);
    }
  }
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, InvalidOptionsThrow) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  using Coll = typename TestFixture::Coll;
  EXPECT_THROW(Coll(cluster, 0, {.block_size = 0}), std::invalid_argument);
}

TYPED_TEST(ShardedTyped, ShardCountDefaultsFromEnv) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  {
    const ScopedEnv unset("RCUA_SHARD_COUNT", std::nullopt);
    typename TestFixture::Coll coll(cluster);
    EXPECT_EQ(coll.shard_count(), cluster.num_locales());
  }
  {
    const ScopedEnv sixteen("RCUA_SHARD_COUNT", "16");
    typename TestFixture::Coll coll(cluster);
    EXPECT_EQ(coll.shard_count(), 16u);
  }
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, GrowthDealsBlocksCyclically) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 0,
                                  {.block_size = 64, .shard_count = 3});
  coll.resize_add(5 * 64);
  EXPECT_EQ(coll.num_blocks(), 5u);
  EXPECT_EQ(coll.capacity(), 5 * 64u);
  // Blocks 0..4 deal 0,1,2,0,1 — every shard within one block of even.
  EXPECT_EQ(coll.shard(0).num_blocks(), 2u);
  EXPECT_EQ(coll.shard(1).num_blocks(), 2u);
  EXPECT_EQ(coll.shard(2).num_blocks(), 1u);
  // Growth resumes the deal where it left off (global block 5 -> shard 2).
  coll.resize_add(1);
  EXPECT_EQ(coll.num_blocks(), 6u);
  EXPECT_EQ(coll.shard(2).num_blocks(), 2u);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, ReserveDoublesTheTotalBlockCountOnce) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 5 * 64,
                                  {.block_size = 64, .shard_count = 3});
  const std::uint64_t resizes = coll.resize_count();  // 3: one per shard
  coll.reserve(5 * 64);  // covered
  EXPECT_EQ(coll.resize_count(), resizes);
  // 5 -> 10 -> 20 blocks in one collection-level growth: blocks 5..19
  // deal 5 to each shard, one resize_add per shard.
  coll.reserve(11 * 64);
  EXPECT_EQ(coll.num_blocks(), 20u);
  EXPECT_EQ(coll.resize_count(), resizes + 3);
  EXPECT_THROW(coll.reserve(SIZE_MAX), std::length_error);
  EXPECT_EQ(coll.num_blocks(), 20u);
  coll.reserve(21 * 64);  // the throw released the remap lock
  EXPECT_EQ(coll.num_blocks(), 40u);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, WriteReadRoundTripsAcrossShards) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 256,
                                  {.block_size = 32, .shard_count = 4});
  ASSERT_EQ(coll.capacity(), 256u);
  for (std::size_t i = 0; i < 256; ++i) coll.write(i, i * 3 + 1);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(coll.read(i), i * 3 + 1);
    EXPECT_EQ(coll.index(i), i * 3 + 1);
    EXPECT_EQ(coll[i], i * 3 + 1);
    EXPECT_EQ(coll.at(i), i * 3 + 1);
  }
  EXPECT_THROW(coll.at(256), std::out_of_range);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, BulkAgreesWithElementOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 10 * 32,
                                  {.block_size = 32, .shard_count = 3});
  std::vector<std::uint64_t> values(7 * 32 + 5);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i ^ 0x5aa5u;
  // Write a shard-straddling, block-misaligned range in bulk...
  coll.bulk_write(/*first=*/17, values);
  // ...and read it back both per element and through both bulk overloads.
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(coll.read(17 + i), values[i]);
  }
  const std::vector<std::uint64_t> back =
      coll.bulk_read(17, values.size());
  EXPECT_EQ(back, values);
  std::vector<std::uint64_t> out(values.size(), 0);
  coll.bulk_read(17, values.size(), out.data());
  EXPECT_EQ(out, values);
  EXPECT_THROW((void)coll.bulk_read(coll.capacity() - 1, 2),
               std::out_of_range);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, RoutingCountsElementOps) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  typename TestFixture::Coll coll(cluster, 64,
                                  {.block_size = 32, .shard_count = 2});
  const std::uint64_t before = coll.routed();
  for (std::size_t i = 0; i < 10; ++i) coll.write(i, i);
  for (std::size_t i = 0; i < 10; ++i) (void)coll.read(i);
  EXPECT_EQ(coll.routed() - before, 20u);
  drain_qsbr();
}

// Two collections on one cluster: each counts only its own ops.
TYPED_TEST(ShardedTyped, CountersBelongToTheirCollection) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  typename TestFixture::Coll a(cluster, 64,
                               {.block_size = 32, .shard_count = 2});
  typename TestFixture::Coll b(cluster, 64,
                               {.block_size = 32, .shard_count = 2});
  for (std::size_t i = 0; i < 100; ++i) (void)a.read(i % a.capacity());
  ASSERT_TRUE(b.migrate(0, 1 - b.home_of(0)));
  EXPECT_EQ(a.routed(), 100u);
  EXPECT_EQ(b.routed(), 0u);
  EXPECT_EQ(a.migrations(), 0u);
  EXPECT_EQ(b.migrations(), 1u);
  EXPECT_EQ(a.remaps(), 0u);
  EXPECT_EQ(b.remaps(), 1u);
  EXPECT_EQ(a.migrated_blocks(), 0u);
  EXPECT_EQ(b.migrated_blocks(), 1u);
  drain_qsbr();
}

// routed_remote counts element ops whose target shard's blocks live off
// the calling locale (the shard's own home, not home_of). With the
// cache off every such op is exactly one GET or PUT, so a single-element
// read/write mix from every locale must give routed_remote == gets +
// puts, before and after a migration. A pure remap moves no blocks, so
// the counter keeps following the blocks, not the table.
TYPED_TEST(ShardedTyped, RoutedRemoteFollowsTheBlocks) {
  constexpr std::uint32_t kLocales = 4;
  constexpr std::size_t kBlock = 32;
  rt::Cluster cluster({.num_locales = kLocales, .workers_per_locale = 1});
  using Coll = typename TestFixture::Coll;
  Coll coll(cluster, 4 * kLocales * kBlock,
            {.block_size = kBlock, .shard_count = kLocales,
             .cache_capacity_bytes = 0});
  auto mix_from_every_locale = [&] {
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      rt::LocaleScope on(cluster, l);
      for (std::size_t i = l; i < coll.capacity(); i += 3) {
        if (i % 4 == 0) {
          coll.write(i, i + 1);
        } else {
          EXPECT_EQ(coll.read(i), i + 1);
        }
      }
    }
  };
  struct Delta {
    std::uint64_t routed_remote;
    std::uint64_t comm;
  };
  auto measure = [&](auto&& body) {
    const std::uint64_t r0 = coll.routed_remote();
    const std::uint64_t c0 =
        cluster.comm().total_gets() + cluster.comm().total_puts();
    body();
    return Delta{coll.routed_remote() - r0,
                 cluster.comm().total_gets() + cluster.comm().total_puts() -
                     c0};
  };
  for (std::size_t i = 0; i < coll.capacity(); ++i) coll.write(i, i + 1);

  const Delta before = measure(mix_from_every_locale);
  EXPECT_GT(before.routed_remote, 0u);
  EXPECT_EQ(before.routed_remote, before.comm);

  ASSERT_TRUE(coll.migrate(0, 1));
  ASSERT_EQ(coll.shard(0).home_locale(), 1u);
  const Delta migrated = measure(mix_from_every_locale);
  EXPECT_EQ(migrated.routed_remote, migrated.comm);

  // Pure remap: the table says shard 2 lives on locale 3, its blocks stay
  // on locale 2, and the counter follows the blocks.
  coll.remap(2, 3);
  ASSERT_EQ(coll.home_of(2), 3u);
  ASSERT_EQ(coll.shard(2).home_locale(), 2u);
  const Delta remapped = measure(mix_from_every_locale);
  EXPECT_EQ(remapped.routed_remote, remapped.comm);
  // Shard 2 holds global blocks 2, 6, 10, 14.
  auto shard2_reads_from = [&](std::uint32_t l) {
    return measure([&] {
      rt::LocaleScope on(cluster, l);
      for (std::size_t g = 2; g < coll.num_blocks(); g += kLocales) {
        EXPECT_EQ(coll.read(g * kBlock), g * kBlock + 1);
      }
    });
  };
  EXPECT_EQ(shard2_reads_from(3).routed_remote, 4u);
  EXPECT_EQ(shard2_reads_from(2).routed_remote, 0u);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, RemapPublishesNewMappingTable) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 4 * 32,
                                  {.block_size = 32, .shard_count = 2});
  for (std::size_t i = 0; i < coll.capacity(); ++i) coll.write(i, i + 9);
  ASSERT_EQ(coll.home_of(0), 0u);
  coll.remap(0, 1);
  EXPECT_EQ(coll.home_of(0), 1u);
  EXPECT_EQ(coll.map_version(), 1u);
  EXPECT_EQ(coll.remaps(), 1u);
  // A pure remap moves no data: every element still reads through the
  // same route, which follows the blocks, not the table.
  for (std::size_t i = 0; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i + 9);
  }
  EXPECT_THROW(coll.remap(2, 0), std::invalid_argument);
  EXPECT_THROW((void)coll.home_of(coll.shard_count()),
               std::invalid_argument);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, MigratePreservesEveryElement) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 4 * 32,
                                  {.block_size = 32,
                                   .shard_count = 2,
                                   .cache_capacity_bytes = 0});
  for (std::size_t i = 0; i < coll.capacity(); ++i) coll.write(i, i * 7 + 3);
  ASSERT_EQ(coll.home_of(0), 0u);

  ASSERT_TRUE(coll.migrate(0, 1));

  EXPECT_EQ(coll.home_of(0), 1u);
  EXPECT_EQ(coll.shard(0).home_locale(), 1u);
  EXPECT_EQ(coll.shard(0).rehomes(), 1u);
  EXPECT_EQ(coll.migrations(), 1u);
  EXPECT_EQ(coll.migration_rollbacks(), 0u);
  EXPECT_EQ(coll.map_version(), 1u);
  // Element-exact survival: distinct values per index, so per-index
  // equality is the no-lost/no-duplicated check.
  for (std::size_t i = 0; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i * 7 + 3);
  }
  // The collection keeps growing after a migration; new blocks for the
  // moved shard land on its new home.
  coll.resize_add(2 * 32);
  EXPECT_EQ(coll.capacity(), 6 * 32u);
  for (std::size_t i = 4 * 32; i < coll.capacity(); ++i) coll.write(i, i);
  for (std::size_t i = 4 * 32; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i);
  }
  EXPECT_THROW(coll.migrate(2, 0), std::invalid_argument);
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, MigrateToCurrentHomeIsANoopMove) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 2 * 32,
                                  {.block_size = 32,
                                   .shard_count = 2,
                                   .cache_capacity_bytes = 0});
  for (std::size_t i = 0; i < coll.capacity(); ++i) coll.write(i, i + 1);
  ASSERT_TRUE(coll.migrate(0, 0));  // nothing to copy or free
  EXPECT_EQ(coll.home_of(0), 0u);
  EXPECT_EQ(coll.shard(0).rehomes(), 0u);  // no blocks moved
  // Nothing moved, so nothing is published or counted.
  EXPECT_EQ(coll.migrations(), 0u);
  EXPECT_EQ(coll.migrated_blocks(), 0u);
  EXPECT_EQ(coll.map_version(), 0u);
  for (std::size_t i = 0; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i + 1);
  }
  drain_qsbr();
}

TYPED_TEST(ShardedTyped, PressureMonitorRebalancesHotLocale) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Coll coll(cluster, 4 * 64,
                                  {.block_size = 64,
                                   .shard_count = 2,
                                   .cache_capacity_bytes = 0});
  typename TestFixture::Monitor monitor(coll, {.imbalance_ratio = 2.0});

  // Balanced start (two blocks per locale): no decision.
  EXPECT_FALSE(monitor.evaluate().has_value());
  EXPECT_TRUE(monitor.tick().empty());

  // Pile everything onto locale 0, then let the monitor undo it.
  ASSERT_TRUE(coll.migrate(1, 0));
  drain_qsbr();  // under QSBR the old home's bytes leave the ledger here
  const auto armed = monitor.evaluate();
  ASSERT_TRUE(armed.has_value());
  EXPECT_EQ(armed->from, 0u);
  EXPECT_EQ(armed->to, 1u);
  EXPECT_EQ(coll.home_of(armed->shard), 0u);

  const auto decisions = monitor.tick();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].completed);
  EXPECT_EQ(coll.home_of(decisions[0].shard), 1u);
  // The tick refreshed the per-locale pressure gauges in the registry.
  EXPECT_EQ(cluster.comm().registry().gauge("rcua.service.pressure.bytes.0")
                .value(),
            cluster.locale(0).bytes_live());

  // One shard per locale again: pressure is balanced, the monitor rests.
  drain_qsbr();
  EXPECT_TRUE(monitor.tick().empty());
  drain_qsbr();
}

// The ISSUE's chaos acceptance scenario: a FaultPlan kills the
// destination locale mid-migration; the move must roll back — old
// placement intact, every element present exactly once — and a retry
// (the fault exhausted) must complete. RCUA_CHAOS_SEED rotates the
// plan seed in CI.
TEST(ShardedChaos, LocaleKillMidMigrationRollsBackWithoutLoss) {
  const std::uint64_t seed = rcua::util::env_u64("RCUA_CHAOS_SEED", 42);
  // Declared before the cluster: pool workers consult the plan between
  // tasks, so it must outlive them (the cluster's destructor joins).
  rt::FaultPlan plan(seed);
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  svc::ShardedCollection<std::uint64_t, EbrPolicy> coll(
      cluster, 4 * 64,
      {.block_size = 64, .shard_count = 1, .cache_capacity_bytes = 0});
  for (std::size_t i = 0; i < coll.capacity(); ++i) coll.write(i, i * 13 + 5);

  // Kill the destination on the first consultation of the copy loop.
  plan.add({.action = rt::FaultPlan::Action::kKillLocale,
            .locale = 1,
            .fire_from = 1,
            .fire_count = 1});
  cluster.set_fault_plan(&plan);

  EXPECT_FALSE(coll.migrate(0, 1)) << "seed " << seed;

  // Rolled back: the old placement stands, nothing was recorded.
  EXPECT_EQ(coll.home_of(0), 0u);
  EXPECT_EQ(coll.shard(0).home_locale(), 0u);
  EXPECT_EQ(coll.map_version(), 0u);
  EXPECT_EQ(coll.migrations(), 0u);
  EXPECT_EQ(coll.migration_rollbacks(), 1u);
  EXPECT_EQ(coll.shard(0).rehome_rollbacks(), 1u);
  // No lost or duplicated elements: every index still reads its distinct
  // fill value (per-index equality == multiset equality here).
  for (std::size_t i = 0; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i * 13 + 5) << "seed " << seed << " index " << i;
  }

  // The fault is exhausted (fire_count = 1): the retry must complete.
  EXPECT_TRUE(coll.migrate(0, 1)) << "seed " << seed;
  EXPECT_EQ(coll.home_of(0), 1u);
  EXPECT_EQ(coll.migrations(), 1u);
  for (std::size_t i = 0; i < coll.capacity(); ++i) {
    EXPECT_EQ(coll.read(i), i * 13 + 5) << "seed " << seed << " index " << i;
  }
}
