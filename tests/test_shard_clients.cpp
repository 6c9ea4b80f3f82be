// Containers as shard clients (typed over EBR and QSBR, the two
// policies the service layer ships as defaults): DistVector,
// DistHashMap and DistIdTable with Backend = svc::ShardedCollection
// must agree with their sequential semantics while the backend remaps
// its placement table and live-migrates shards underneath them — the
// same contract the test_rcu_array_* matrix pins for the plain array.
//
// Writes are quiesced during migrations (RCUArray::rehome's
// concurrency contract: element writes racing the copy phase are
// last-writer-wins); lookups and remaps run fully concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "containers/dist_hash_map.hpp"
#include "containers/dist_id_table.hpp"
#include "containers/dist_vector.hpp"
#include "runtime/cluster.hpp"
#include "service/sharded_collection.hpp"

using rcua::EbrPolicy;
using rcua::QsbrPolicy;
namespace rt = rcua::rt;
namespace cont = rcua::cont;
namespace svc = rcua::svc;

namespace {

template <typename Policy>
struct ShardClients : public ::testing::Test {
  using Vector =
      cont::DistVector<std::uint64_t, Policy, svc::ShardedCollection>;
  using Map = cont::DistHashMap<std::uint64_t, std::uint64_t, Policy,
                                svc::ShardedCollection>;
  using Table =
      cont::DistIdTable<std::uint64_t, Policy, svc::ShardedCollection>;
};

using ClientPolicies = ::testing::Types<EbrPolicy, QsbrPolicy>;
TYPED_TEST_SUITE(ShardClients, ClientPolicies);

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

}  // namespace

TYPED_TEST(ShardClients, DistVectorAgreesOnShardedBackend) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Vector vec(cluster, {.block_size = 64});
  // The documented default: RCUA_SHARD_COUNT when set, else one shard
  // per locale.
  const char* env = std::getenv("RCUA_SHARD_COUNT");
  EXPECT_EQ(vec.backing().shard_count(),
            env != nullptr ? std::stoull(env) : cluster.num_locales());
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(vec.push_back(i * 2 + 1), i);
  }
  EXPECT_EQ(vec.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) EXPECT_EQ(vec[i], i * 2 + 1);
  const std::vector<std::uint64_t> range = vec.read_range(100, 300);
  for (std::size_t i = 0; i < 300; ++i) EXPECT_EQ(range[i], (100 + i) * 2 + 1);
  drain_qsbr();
}

TYPED_TEST(ShardClients, DistVectorSurvivesLiveMigration) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Vector vec(cluster, {.block_size = 64});
  for (std::uint64_t i = 0; i < 400; ++i) vec.push_back(i + 11);

  auto& coll = vec.backing();
  // Move every shard off its initial home and verify the vector's
  // contract is untouched — indices are routing arithmetic, not
  // placement, so values stay put.
  for (std::size_t s = 0; s < coll.shard_count(); ++s) {
    const std::uint32_t from = coll.home_of(s);
    ASSERT_TRUE(coll.migrate(s, (from + 1) % cluster.num_locales()));
  }
  for (std::size_t i = 0; i < 400; ++i) EXPECT_EQ(vec[i], i + 11);
  // Appends keep working after the moves (growth lands on new homes).
  for (std::uint64_t i = 400; i < 600; ++i) vec.push_back(i + 11);
  for (std::size_t i = 0; i < 600; ++i) EXPECT_EQ(vec.at(i), i + 11);
  drain_qsbr();
}

TYPED_TEST(ShardClients, DistIdTableAgreesAcrossMigration) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Table table(cluster, {.block_size = 64});
  std::vector<std::size_t> ids;
  for (std::uint64_t v = 0; v < 300; ++v) {
    ids.push_back(table.allocate(v * 5 + 2));
  }
  EXPECT_EQ(table.live(), 300u);
  auto& coll = table.backing();
  for (std::size_t s = 0; s < coll.shard_count(); ++s) {
    const std::uint32_t from = coll.home_of(s);
    ASSERT_TRUE(coll.migrate(s, (from + 1) % cluster.num_locales()));
  }
  // Ids are stable across the move: same dense id, same value.
  for (std::uint64_t v = 0; v < 300; ++v) {
    EXPECT_EQ(table.get(ids[v]), v * 5 + 2);
  }
  // Recycling still works against the migrated storage.
  table.release(ids[7]);
  EXPECT_EQ(table.allocate(999), ids[7]);
  EXPECT_EQ(table.get(ids[7]), 999u);
  drain_qsbr();
}

TYPED_TEST(ShardClients, DistIdTableLookupsConcurrentWithMigration) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Table table(cluster, {.block_size = 64});
  constexpr std::uint64_t kIds = 256;
  for (std::uint64_t v = 0; v < kIds; ++v) table.allocate(v ^ 0xbeefu);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad_id{0};
  std::atomic<std::uint64_t> first_bad_got{0};
  // table.read, not table.get: lookups racing a migration must use the
  // value path (in-section copy). get()'s escaping reference is only
  // covered by §III-C's recycling argument, which rehome's block
  // reclamation breaks — the typed suite proved that the hard way.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (std::uint64_t v = 0; v < kIds; ++v) {
        const std::uint64_t got = table.read(v);
        if (got != (v ^ 0xbeefu)) {
          if (mismatches.fetch_add(1, std::memory_order_relaxed) == 0) {
            first_bad_id.store(v, std::memory_order_relaxed);
            first_bad_got.store(got, std::memory_order_relaxed);
          }
        }
      }
    }
  });
  // Reads are safe throughout a migration (rehome's contract); bounce
  // every shard across the locales while the reader hammers lookups.
  auto& coll = table.backing();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t s = 0; s < coll.shard_count(); ++s) {
      const std::uint32_t from = coll.home_of(s);
      ASSERT_TRUE(coll.migrate(s, (from + 1) % cluster.num_locales()));
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatch: id=" << first_bad_id.load() << " got 0x" << std::hex
      << first_bad_got.load() << " want 0x" << (first_bad_id.load() ^ 0xbeefu);
  for (std::uint64_t v = 0; v < kIds; ++v) {
    EXPECT_EQ(table.get(v), v ^ 0xbeefu);
  }
  drain_qsbr();
}

TYPED_TEST(ShardClients, DistHashMapAgreesOnShardedBackend) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Map map(cluster,
                                {.num_buckets = 64, .block_size = 64});
  // Enough keys to chain through overflow slots and force slab growth
  // across the shards.
  for (std::uint64_t k = 0; k < 600; ++k) {
    EXPECT_TRUE(map.insert(k, k * 3 + 1));
  }
  EXPECT_EQ(map.size(), 600u);
  EXPECT_GT(map.growths(), 0u);
  for (std::uint64_t k = 0; k < 600; ++k) {
    const auto v = map.find(k);
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, k * 3 + 1);
  }
  // Erase/revive through tombstones still behaves on the sharded slab.
  EXPECT_TRUE(map.erase(17));
  EXPECT_FALSE(map.contains(17));
  EXPECT_TRUE(map.insert(17, 1234));
  EXPECT_EQ(map.find(17).value(), 1234u);
  drain_qsbr();
}

TYPED_TEST(ShardClients, DistHashMapAgreementUnderConcurrentRemap) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  typename TestFixture::Map map(cluster,
                                {.num_buckets = 64, .block_size = 64});
  constexpr std::uint64_t kWarm = 300;
  for (std::uint64_t k = 0; k < kWarm; ++k) map.insert(k, k + 7);

  // Two lookup threads and one inserter (disjoint keys) race a stream
  // of remaps. Slot accesses route by arithmetic and the shard's own
  // home, not through the placement table, so two more threads (one per
  // locale) read the table itself (home_of / map_version) across the
  // same stream: the remap-concurrent-with-lookup scenario of DESIGN.md
  // §14.
  auto& coll = map.backing();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> bad_homes{0};
  std::atomic<std::uint64_t> version_regressions{0};
  std::atomic<int> map_readers_started{0};
  std::vector<std::thread> map_readers;
  for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
    map_readers.emplace_back([&, l] {
      rt::LocaleScope on(cluster, l);
      std::uint64_t last = 0;
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t v = coll.map_version();
        if (v < last) version_regressions.fetch_add(1);
        last = v;
        for (std::size_t s = 0; s < coll.shard_count(); ++s) {
          if (coll.home_of(s) >= cluster.num_locales()) bad_homes.fetch_add(1);
        }
        if (first) map_readers_started.fetch_add(1);
        first = false;
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::uint64_t k = 0; k < kWarm; ++k) {
          const auto v = map.find(k);
          if (!v.has_value() || *v != k + 7) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread inserter([&] {
    for (std::uint64_t k = kWarm; k < kWarm + 200; ++k) {
      map.insert(k, k + 7);
    }
  });
  while (map_readers_started.load() < static_cast<int>(map_readers.size())) {
    std::this_thread::yield();
  }
  for (int round = 0; round < 32; ++round) {
    for (std::size_t s = 0; s < coll.shard_count(); ++s) {
      coll.remap(s, static_cast<std::uint32_t>((s + round) %
                                               cluster.num_locales()));
    }
  }
  inserter.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  for (auto& r : map_readers) r.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(bad_homes.load(), 0u);
  EXPECT_EQ(version_regressions.load(), 0u);
  EXPECT_EQ(coll.map_version(), 32u * coll.shard_count());
  EXPECT_EQ(map.size(), kWarm + 200);
  for (std::uint64_t k = 0; k < kWarm + 200; ++k) {
    const auto v = map.find(k);
    ASSERT_TRUE(v.has_value()) << k;
    EXPECT_EQ(*v, k + 7);
  }
  drain_qsbr();
}
