// Ablation: the sharded service layer (DESIGN.md §14).
//
// Two deterministic phases per shard count, both CI-gated through
// scripts/check_bench_gate.py:
//
//   route   — one task per locale runs a fixed read/write mix over its
//             deterministic slice of the keyspace; the comm counters
//             (gets / puts / executes) and the service routing counters
//             (routed / routed_remote) are a pure function of the
//             workload because routing is block-cyclic arithmetic plus
//             a load of the target shard's home (routed_remote counts
//             ops whose shard's blocks are off the calling locale).
//   migrate — every shard live-migrates to the next locale; the comm
//             executes (block allocs + pipelined copies on the §10
//             async path) and the migration counters (migrations /
//             migrated_blocks / remaps) are a pure function of the
//             block layout.
//
// The bench proves migration correctness cheaply the way the cache
// ablation proves coherence: a full checksum before the migrations must
// equal the checksum after, else exit nonzero.

#include "bench_common.hpp"
#include "service/sharded_collection.hpp"

#include <span>
#include <vector>

namespace {

using namespace rcua::bench;

struct PhaseTotals {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t executes = 0;
};

void capture(rcua::rt::Cluster& cluster, PhaseTotals* out) {
  out->gets = cluster.comm().total_gets();
  out->puts = cluster.comm().total_puts();
  out->executes = cluster.comm().total_executes();
}

}  // namespace

int main() {
  using namespace rcua::bench;
  Params p = Params::from_env({.ops_per_task = 2048});
  p.print_banner(
      "Ablation: sharded service layer, routing + live migration "
      "(4 locales)",
      "(not a paper figure) fixed read/write mix vs shard count, then a "
      "full rotation of live shard migrations",
      "routing is block-cyclic arithmetic with no read section of its "
      "own (flat in shard count); migration traffic is O(blocks moved) "
      "on the async comm path; both counter sets are deterministic and "
      "CI-gated (DESIGN.md §14)");

  constexpr std::uint32_t kLocales = 4;
  bool checksum_ok = true;
  rcua::util::Table table({"shards", "route_tput", "routed_remote",
                           "migrate_execs", "migrated_blocks"});

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{8}}) {
    rcua::rt::Cluster cluster(
        {.num_locales = kLocales, .workers_per_locale = 4});
    rcua::svc::ShardedCollection<std::uint64_t, rcua::QsbrPolicy> coll(
        cluster, p.array_elems,
        {.block_size = p.block_size,
         .shard_count = shards,
         .cache_capacity_bytes = 0});
    const std::uint64_t cap = coll.capacity();

    // Deterministic content for the migration checksum.
    {
      std::vector<std::uint64_t> vals(cap);
      for (std::uint64_t i = 0; i < cap; ++i) {
        vals[i] = rcua::plat::mix64(i ^ p.seed);
      }
      coll.bulk_write(0, std::span<const std::uint64_t>(vals.data(),
                                                        vals.size()));
    }

    // -- route phase: one task per locale, sequential slice, 1-in-4
    // writes (counters cover exactly this workload).
    cluster.comm().reset();
    const std::uint64_t total_ops =
        static_cast<std::uint64_t>(kLocales) * p.ops_per_task;
    const double tput = measure_tasks(
        cluster, /*tasks_per_locale=*/1, total_ops, p.wallclock,
        [&](std::uint32_t l, std::uint32_t) {
          const std::uint64_t start = (l * p.ops_per_task * 7) % cap;
          for (std::uint64_t n = 0; n < p.ops_per_task; ++n) {
            const std::uint64_t i = (start + n) % cap;
            if (n % 4 == 0) {
              coll.write(i, n);
            } else {
              (void)coll.read(i);
            }
          }
        });
    PhaseTotals route;
    capture(cluster, &route);
    const std::uint64_t routed = coll.routed();
    const std::uint64_t routed_remote = coll.routed_remote();
    rcua::obs::StatLine("comm_stat")
        .kv("phase", "route")
        .kv("shards", static_cast<std::uint64_t>(shards))
        .kv("gets", route.gets)
        .kv("puts", route.puts)
        .kv("executes", route.executes)
        .kv("routed", routed)
        .kv("routed_remote", routed_remote)
        .kv("ops", total_ops)
        .print();

    // -- migrate phase: checksum, rotate every shard one locale over,
    // checksum again. The reset scopes the counters to the migrations.
    std::uint64_t before = 0;
    for (const std::uint64_t v : coll.bulk_read(0, cap)) before += v;
    cluster.comm().reset();
    for (std::size_t s = 0; s < coll.shard_count(); ++s) {
      const std::uint32_t from = coll.home_of(s);
      if (!coll.migrate(s, (from + 1) % kLocales)) {
        std::fprintf(stderr, "FAIL: shard %zu migration rolled back "
                             "without a fault plan\n", s);
        checksum_ok = false;
      }
    }
    PhaseTotals mig;
    capture(cluster, &mig);
    const std::uint64_t migrations = coll.migrations();
    const std::uint64_t migrated_blocks_total = coll.migrated_blocks();
    rcua::obs::StatLine("comm_stat")
        .kv("phase", "migrate")
        .kv("shards", static_cast<std::uint64_t>(shards))
        .kv("gets", mig.gets)
        .kv("puts", mig.puts)
        .kv("executes", mig.executes)
        .kv("migrations", migrations)
        .kv("migrated_blocks", migrated_blocks_total)
        .kv("remaps", coll.remaps())
        .print();
    std::uint64_t after = 0;
    for (const std::uint64_t v : coll.bulk_read(0, cap)) after += v;
    if (after != before) {
      std::fprintf(stderr,
                   "FAIL: shards=%zu checksum %llu != pre-migration %llu "
                   "— migration lost or corrupted elements\n",
                   shards, static_cast<unsigned long long>(after),
                   static_cast<unsigned long long>(before));
      checksum_ok = false;
    }

    table.add_row({std::to_string(shards), rcua::util::Table::num(tput),
                   std::to_string(routed_remote),
                   std::to_string(mig.executes),
                   std::to_string(migrated_blocks_total)});
    rcua::reclaim::Qsbr::global().flush_unsafe();
    std::printf("... shards=%zu done\n", shards);
  }

  std::printf("\nrouting throughput (ops/sec) and migration traffic:\n");
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);
  return checksum_ok ? 0 : 1;
}
