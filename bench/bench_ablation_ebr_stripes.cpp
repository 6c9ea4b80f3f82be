// Ablation: the EBR reader bank, the paper's collective counters vs
// thread-owned slots.
//
// Raw BasicEbr read sections (no array, no payload) across a task-count
// sweep, comparing the paper's legacy 2-counter collective layout against
// the owned bank, where each thread announces on its own slot. This
// isolates exactly the cost the owned layout attacks: the announce and
// retract on the EpochReaders line(s).
//
// Throughput is virtual-time by default (RCUA_WALLCLOCK=1 for wall time).
// Extra knob on top of bench_common's:
//
//   RCUA_THREADS      comma list of task counts (default "1,2,4,8,16")
//
// Expected shape: the legacy column collapses as tasks grow (every
// announce/retract transfers the one shared line); the owned column
// scales with the tasks, since no two readers share a slot.

#include "bench_common.hpp"

#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"

namespace {

using namespace rcua::bench;
namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;

/// One cell of the sweep: `tasks` tasks on one locale, each running
/// `ops` empty read-side critical sections against a shared reclaimer.
template <typename EbrT>
double run_reads(std::uint32_t tasks, std::uint64_t ops, bool wallclock) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = tasks + 2});
  EbrT ebr;
  const std::uint64_t total = static_cast<std::uint64_t>(tasks) * ops;
  return measure_tasks(cluster, tasks, total, wallclock,
                       [&](std::uint32_t, std::uint32_t) {
                         for (std::uint64_t n = 0; n < ops; ++n) {
                           ebr.read([] { return 0; });
                         }
                       });
}

}  // namespace

int main() {
  Params p = Params::from_env({.ops_per_task = 4096});
  const std::vector<std::uint64_t> threads =
      rcua::util::env_u64_list("RCUA_THREADS", {1, 2, 4, 8, 16});

  std::printf("== Ablation: EBR reader bank, legacy vs owned ==\n");
  std::printf(
      "workload       : raw BasicEbr read sections, 1 locale, empty body\n");
  std::printf(
      "this run       : ops/task=%llu hw_threads=%u mode=%s\n\n",
      static_cast<unsigned long long>(p.ops_per_task),
      static_cast<unsigned>(rcua::plat::hardware_threads()),
      p.wallclock ? "wallclock" : "virtual-time");

  rcua::util::Table table({"tasks", "legacy", "owned"});
  double legacy_at_max = 0.0, owned_at_max = 0.0;
  for (const std::uint64_t t : threads) {
    const auto tasks = static_cast<std::uint32_t>(t);
    legacy_at_max =
        run_reads<reclaim::LegacyEbr>(tasks, p.ops_per_task, p.wallclock);
    owned_at_max = run_reads<reclaim::Ebr>(tasks, p.ops_per_task, p.wallclock);
    table.add_row({std::to_string(t), rcua::util::Table::num(legacy_at_max),
                   rcua::util::Table::num(owned_at_max)});
    std::printf("... tasks=%llu done\n", static_cast<unsigned long long>(t));
  }

  std::printf("\nthroughput (reads/sec):\n");
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);

  if (legacy_at_max > 0) {
    std::printf("\nowned / legacy at %llu tasks: %.2fx\n",
                static_cast<unsigned long long>(threads.back()),
                owned_at_max / legacy_at_max);
  }
  return 0;
}
