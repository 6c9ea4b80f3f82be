// Ablation: EBR read-side reader-counter striping.
//
// Raw BasicEbr read sections (no array, no payload) across a task-count
// sweep, comparing the paper's legacy 2-counter collective layout against
// the striped bank at stripe counts 1, 2, 4, ... up to twice the hardware
// concurrency (at least 8 so the sweep is informative on small hosts).
// This isolates exactly the cost the tentpole optimization attacks: the
// announce/retract RMWs on the EpochReaders line(s).
//
// Throughput is virtual-time by default (RCUA_WALLCLOCK=1 for wall time).
// Extra knobs on top of bench_common's:
//
//   RCUA_THREADS      comma list of task counts (default "1,2,4,8,16")
//   RCUA_STRIPE_LIST  comma list of stripe counts for the striped columns
//
// Expected shape: the legacy column collapses as tasks grow (every
// announce/retract transfers the one shared line); the striped columns
// flatten out once stripes >= tasks, recovering near-QSBR read cost.

#include "bench_common.hpp"

#include <algorithm>

#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"

namespace {

using namespace rcua::bench;
namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;

/// One cell of the sweep: `tasks` tasks on one locale, each running
/// `ops` empty read-side critical sections against a shared reclaimer.
template <typename EbrT>
double run_reads(std::uint32_t tasks, std::uint64_t ops, bool wallclock,
                 std::size_t stripes) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = tasks + 2});
  EbrT ebr(0, stripes);
  const std::uint64_t total = static_cast<std::uint64_t>(tasks) * ops;
  return measure_tasks(cluster, tasks, total, wallclock,
                       [&](std::uint32_t, std::uint32_t) {
                         for (std::uint64_t n = 0; n < ops; ++n) {
                           ebr.read([] { return 0; });
                         }
                       });
}

std::vector<std::uint64_t> default_stripe_list() {
  const std::size_t hw = rcua::plat::hardware_threads();
  std::uint64_t ceil = 8;  // keep the sweep informative on tiny hosts
  while (ceil < 2 * hw) ceil *= 2;
  std::vector<std::uint64_t> list;
  for (std::uint64_t s = 1; s <= ceil; s *= 2) list.push_back(s);
  return list;
}

}  // namespace

int main() {
  Params p = Params::from_env({.ops_per_task = 4096});
  const std::vector<std::uint64_t> threads =
      rcua::util::env_u64_list("RCUA_THREADS", {1, 2, 4, 8, 16});
  const std::vector<std::uint64_t> stripe_list =
      rcua::util::env_u64_list("RCUA_STRIPE_LIST", default_stripe_list());

  std::printf("== Ablation: EBR reader-counter striping ==\n");
  std::printf(
      "workload       : raw BasicEbr read sections, 1 locale, empty body\n");
  std::printf(
      "this run       : ops/task=%llu hw_threads=%u mode=%s\n\n",
      static_cast<unsigned long long>(p.ops_per_task),
      static_cast<unsigned>(rcua::plat::hardware_threads()),
      p.wallclock ? "wallclock" : "virtual-time");

  std::vector<std::string> header{"tasks", "legacy"};
  for (const std::uint64_t s : stripe_list) {
    header.push_back("striped" + std::to_string(s));
  }
  rcua::util::Table table(header);

  double legacy_at_max = 0.0, best_striped_at_max = 0.0;
  for (const std::uint64_t t : threads) {
    const auto tasks = static_cast<std::uint32_t>(t);
    std::vector<std::string> row{std::to_string(t)};
    const double legacy = run_reads<reclaim::LegacyEbr>(
        tasks, p.ops_per_task, p.wallclock, /*stripes=*/1);
    row.push_back(rcua::util::Table::num(legacy));
    double best = 0.0;
    for (const std::uint64_t s : stripe_list) {
      const double v = run_reads<reclaim::Ebr>(tasks, p.ops_per_task,
                                               p.wallclock, s);
      best = std::max(best, v);
      row.push_back(rcua::util::Table::num(v));
    }
    table.add_row(std::move(row));
    legacy_at_max = legacy;
    best_striped_at_max = best;
    std::printf("... tasks=%llu done\n", static_cast<unsigned long long>(t));
  }

  std::printf("\nthroughput (reads/sec):\n");
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);

  if (legacy_at_max > 0) {
    std::printf("\nbest striped / legacy at %llu tasks: %.2fx\n",
                static_cast<unsigned long long>(threads.back()),
                best_striped_at_max / legacy_at_max);
  }
  return 0;
}
