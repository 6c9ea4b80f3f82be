// Ablation: stall-tolerant reclamation (the grace-period watchdog).
//
// Readers hammer an EBR-protected RCUArray while a FaultPlan randomly
// stalls them mid-read-section; the main thread meanwhile performs a
// train of resize_adds. The sweep compares drain deadlines, from the
// paper's blocking behaviour (deadline 0: every resize waits out the
// slowest stalled reader) to progressively tighter deadlines where the
// writer defers the old spine onto the overflow retire list and moves
// on. This is wall-clock by construction — injected stalls are real
// sleeps — so the virtual-time mode is not offered.
//
// Extra knobs on top of bench_common's:
//
//   RCUA_STALL_LIST   comma list of drain deadlines in ns; 0 = blocking
//                     (default "0,100000,1000000")
//   RCUA_STALL_NS     injected reader-stall duration (default 2000000)
//   RCUA_STALL_PROB_M stalls per million read consultations (default 200)
//   RCUA_RESIZES      resize_adds per cell (default 64)
//   RCUA_THREADS      reader thread count (default 4; first element used)
//
// Expected shape: blocking resize throughput collapses to roughly
// 1/stall_ns as stalls land, while deadline columns hold their rate and
// pay for it in peak overflow bytes — which the final flush returns to
// zero, demonstrating the watchdog's bounded-memory contract.

#include "bench_common.hpp"

#include <atomic>
#include <thread>

#include "reclaim/stall_monitor.hpp"
#include "runtime/fault_plan.hpp"

namespace {

using namespace rcua::bench;
namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;

struct CellResult {
  double resizes_per_sec = 0.0;
  double mean_resize_ms = 0.0;
  double max_resize_ms = 0.0;
  std::uint64_t stalled_spines = 0;
  std::size_t peak_overflow_bytes = 0;
  std::size_t leftover_bytes = 0;  // after the final flush; must be 0
};

CellResult run_cell(std::uint64_t deadline_ns, std::uint64_t stall_ns,
                    double stall_prob, std::uint32_t readers,
                    std::uint64_t resizes, const Params& p) {
  rt::FaultPlan plan(p.seed);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});

  reclaim::StallMonitor monitor(/*budget_bytes=*/0, deadline_ns);
  monitor.set_sink(nullptr);  // silent: the table reports totals

  using Array = rcua::RCUArray<std::uint64_t, rcua::EbrPolicy>;
  Array::Options opts;
  opts.block_size = p.block_size;
  opts.stall_monitor = &monitor;
  Array arr(cluster, p.block_size, opts);

  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = rt::FaultPlan::kAnyLocale,
            .fire_from = 1,
            .fire_count = UINT64_MAX,
            .probability = stall_prob,
            .delay_ns = stall_ns});
  cluster.set_fault_plan(&plan);

  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (std::uint32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      std::uint64_t i = r;
      while (!stop.load(std::memory_order_relaxed)) {
        arr.read(i++ % p.block_size);
      }
    });
  }

  CellResult out;
  rcua::plat::Timer total;
  double max_ms = 0.0;
  for (std::uint64_t n = 0; n < resizes; ++n) {
    rcua::plat::Timer one;
    arr.resize_add(p.block_size);
    max_ms = std::max(max_ms, one.elapsed_s() * 1e3);
  }
  const double total_s = total.elapsed_s();

  stop.store(true);
  for (auto& t : pool) t.join();
  cluster.set_fault_plan(nullptr);

  out.resizes_per_sec =
      total_s > 0 ? static_cast<double>(resizes) / total_s : 0.0;
  out.mean_resize_ms =
      static_cast<double>(resizes) > 0 ? total_s * 1e3 / resizes : 0.0;
  out.max_resize_ms = max_ms;
  out.stalled_spines = arr.stalled_spines();
  out.peak_overflow_bytes = monitor.peak_overflow_bytes();
  // With every reader gone the parity columns are empty: one flush must
  // return the overflow list (and the monitor's byte count) to zero.
  arr.reclaim_overflow();
  out.leftover_bytes = arr.reclaim_pending_bytes();
  return out;
}

}  // namespace

int main() {
  Params p = Params::from_env({.block_size = 256});
  const auto deadlines =
      rcua::util::env_u64_list("RCUA_STALL_LIST", {0, 100 * 1000, 1000 * 1000});
  const std::uint64_t stall_ns =
      rcua::util::env_u64("RCUA_STALL_NS", 2 * 1000 * 1000);
  const double stall_prob =
      static_cast<double>(rcua::util::env_u64("RCUA_STALL_PROB_M", 200)) / 1e6;
  const std::uint64_t resizes = rcua::util::env_u64("RCUA_RESIZES", 64);
  const auto readers = static_cast<std::uint32_t>(
      rcua::util::env_u64_list("RCUA_THREADS", {4}).front());

  std::printf("== Ablation: stall-tolerant reclamation ==\n");
  std::printf(
      "workload       : %u readers under injected %.1f ms stalls "
      "(%.0f/M reads), %llu resize_adds\n",
      readers, stall_ns * 1e-6, stall_prob * 1e6,
      static_cast<unsigned long long>(resizes));
  std::printf("this run       : block=%zu mode=wallclock (stalls are real)\n\n",
              p.block_size);

  rcua::util::Table table({"deadline_us", "resizes/s", "mean_ms", "max_ms",
                           "deferred", "peak_kib", "leftover"});
  double blocking_rate = 0.0, best_deadline_rate = 0.0;
  for (const std::uint64_t d : deadlines) {
    const CellResult r =
        run_cell(d, stall_ns, stall_prob, readers, resizes, p);
    table.add_row({d == 0 ? "blocking" : rcua::util::Table::num(d / 1e3),
                   rcua::util::Table::num(r.resizes_per_sec),
                   rcua::util::Table::fixed(r.mean_resize_ms, 3),
                   rcua::util::Table::fixed(r.max_resize_ms, 3),
                   std::to_string(r.stalled_spines),
                   rcua::util::Table::fixed(
                       static_cast<double>(r.peak_overflow_bytes) / 1024.0, 1),
                   std::to_string(r.leftover_bytes)});
    if (d == 0) {
      blocking_rate = r.resizes_per_sec;
    } else {
      best_deadline_rate = std::max(best_deadline_rate, r.resizes_per_sec);
    }
    std::printf("... deadline=%llu ns done (deferred %llu spines)\n",
                static_cast<unsigned long long>(d),
                static_cast<unsigned long long>(r.stalled_spines));
  }

  std::printf("\nresize progress under reader stalls:\n");
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);

  if (blocking_rate > 0 && best_deadline_rate > 0) {
    std::printf("\nbest deadline / blocking resize rate: %.2fx\n",
                best_deadline_rate / blocking_rate);
  }
  return 0;
}
