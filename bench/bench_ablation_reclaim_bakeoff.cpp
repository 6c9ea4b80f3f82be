// Ablation: bounded-memory reclamation bake-off (DESIGN.md §13).
//
// Five reclamation schemes retire the same spine train and are judged on
// one question: how much retired-but-unreclaimed memory does a stalled
// reader cost? The epoch schemes (owned EBR, legacy EBR) defer every
// spine whose grace period a parked reader blocks, and QSBR defers every
// spine until its laggard participant checkpoints — in both cases the
// unreclaimed list grows linearly with the resize train. The interval
// schemes (IBR, hazard eras) tag each spine with its [birth, retire] era
// lifetime and free everything a stalled reservation does not overlap,
// so their pending list is bounded by a constant per locale, independent
// of both the stall duration and the train length.
//
// Part 1 (wallclock): readers hammer read() under injected FaultPlan
// stalls while the main thread runs a resize train; the table reports
// resize/read throughput and each scheme's unreclaimed high-water mark
// per stall duration.
//
// Part 2 (deterministic): single-locale, single-worker train against one
// parked snapshot View (QSBR: a participant that never checkpoints).
// The counters are pure functions of the workload and are emitted as
// comm_stat lines for scripts/check_bench_gate.py:
//
//   ibr/he      retired / freed / era_advances / era_scans
//   ebr/legacy  stalled_spines
//   qsbr        defers
//   all         pending_end / pending_after_flush
//
// The bench asserts the headline itself and fails (rc=1) otherwise:
// interval pending_end stays at its constant bound while ebr/legacy/qsbr
// pending_end equals the train length, and every scheme drains to zero
// once the laggard leaves.
//
// Extra knobs on top of bench_common's:
//
//   RCUA_RECLAIM      comma list of schemes to run, subset of
//                     "ebr,legacy,qsbr,ibr,he" (default: all five)
//   RCUA_STALL_LIST   comma list of injected stall durations in ns
//                     (default "0,2000000")
//   RCUA_STALL_PROB_M stalls per million read consultations (default 200)
//   RCUA_RESIZES      resize_adds per wallclock cell (default 24)
//   RCUA_THREADS      reader thread count (default 2; first element used)

#include "bench_common.hpp"

#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/fault_plan.hpp"

namespace {

using namespace rcua::bench;
namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;

/// Part 2 train length. Fixed (not env-derived) so the comm_stat config
/// identity is stable under RCUA_RESIZES overrides.
constexpr std::uint64_t kTrain = 16;
/// Interval schemes: a point reservation overlaps at most this many
/// consecutive spine lifetimes per locale (DESIGN.md §13).
constexpr std::size_t kIntervalBound = 2;

/// Full QSBR drain. Deferrals are spread across every thread that ran a
/// publish body, and a checkpoint only reclaims the CALLER's list — so
/// alternate main/worker checkpoint rounds first, then flush the
/// remainder left on the slots of pool threads that have already exited
/// (only the next owner of such a slot's reader index would reclaim it).
/// The flush is shutdown-grade and only legal here because the laggard
/// has been released and no reader is live.
void drain_qsbr(rt::Cluster& cluster, reclaim::Qsbr& qsbr) {
  for (int round = 0; round < 2; ++round) {
    qsbr.checkpoint();
    cluster.coforall_locales([&](std::uint32_t) { qsbr.checkpoint(); });
  }
  qsbr.checkpoint();
  qsbr.flush_unsafe();
}

bool scheme_enabled(const char* tag) {
  const auto list = rcua::util::env_str("RCUA_RECLAIM");
  if (!list) return true;
  const std::string padded = "," + *list + ",";
  return padded.find(std::string(",") + tag + ",") != std::string::npos;
}

// ---- Part 1: wallclock stall sweep ------------------------------------

struct CellResult {
  double resizes_per_sec = 0.0;
  double reads_per_sec = 0.0;
  /// Retired-but-unreclaimed high-water bytes; SIZE_MAX = not tracked
  /// in bytes by this scheme (QSBR deferral is object-granular).
  std::size_t hwm_bytes = SIZE_MAX;
  std::size_t pending_end = 0;  // objects, sampled with readers live
  std::size_t leftover = 0;     // objects after the post-run drain
};

template <typename Policy>
CellResult run_cell(std::uint64_t stall_ns, double stall_prob,
                    std::uint32_t readers, std::uint64_t resizes,
                    const Params& p) {
  using Array = rcua::RCUArray<std::uint64_t, Policy>;
  rt::FaultPlan plan(p.seed);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 2});

  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.set_sink(nullptr);  // silent: the table reports totals

  std::optional<reclaim::Qsbr> qsbr;

  typename Array::Options opts;
  opts.block_size = p.block_size;
  opts.stall_policy.deadline_ns = 100 * 1000;  // defer, never block
  opts.stall_monitor = &monitor;
  if constexpr (Array::uses_qsbr) {
    qsbr.emplace();
    opts.qsbr = &*qsbr;
  }
  Array arr(cluster, p.block_size, opts);

  if (stall_ns > 0) {
    plan.add({.action = rt::FaultPlan::Action::kStallReader,
              .locale = rt::FaultPlan::kAnyLocale,
              .fire_from = 1,
              .fire_count = UINT64_MAX,
              .probability = stall_prob,
              .delay_ns = stall_ns});
    cluster.set_fault_plan(&plan);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> pool;
  for (std::uint32_t r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      std::uint64_t i = r;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        arr.read(i++ % p.block_size);
        ++n;
      }
      reads.fetch_add(n, std::memory_order_relaxed);
    });
  }

  rcua::plat::Timer total;
  for (std::uint64_t n = 0; n < resizes; ++n) arr.resize_add(p.block_size);
  const double total_s = total.elapsed_s();

  CellResult out;
  // Sample pending while the readers (the stall source) are still live.
  if constexpr (Array::uses_qsbr) {
    out.pending_end = qsbr->pending_total();
  } else {
    out.pending_end = arr.reclaim_pending_objects();
    if constexpr (Array::uses_interval) {
      out.hwm_bytes = arr.ebr_stats_at(0).pending_bytes_hwm;
    } else {
      out.hwm_bytes = monitor.peak_overflow_bytes();
    }
  }

  stop.store(true);
  for (auto& t : pool) t.join();
  cluster.set_fault_plan(nullptr);

  out.resizes_per_sec =
      total_s > 0 ? static_cast<double>(resizes) / total_s : 0.0;
  out.reads_per_sec =
      total_s > 0
          ? static_cast<double>(reads.load(std::memory_order_relaxed)) /
                total_s
          : 0.0;

  // With every reader gone the drain must leave nothing behind.
  if constexpr (Array::uses_qsbr) {
    drain_qsbr(cluster, *qsbr);
    out.leftover = qsbr->pending_total();
  } else {
    arr.reclaim_overflow();
    out.leftover = arr.reclaim_pending_objects();
  }
  return out;
}

template <typename Policy>
void sweep_scheme(const char* tag, const std::vector<std::uint64_t>& stalls,
                  double stall_prob, std::uint32_t readers,
                  std::uint64_t resizes, const Params& p,
                  rcua::util::Table& table) {
  for (const std::uint64_t stall_ns : stalls) {
    const CellResult r =
        run_cell<Policy>(stall_ns, stall_prob, readers, resizes, p);
    table.add_row(
        {tag, rcua::util::Table::num(static_cast<double>(stall_ns) / 1e3),
         rcua::util::Table::num(r.resizes_per_sec),
         rcua::util::Table::num(r.reads_per_sec),
         r.hwm_bytes == SIZE_MAX
             ? std::string("-")
             : rcua::util::Table::fixed(
                   static_cast<double>(r.hwm_bytes) / 1024.0, 1),
         std::to_string(r.pending_end), std::to_string(r.leftover)});
    std::printf("... scheme=%s stall=%llu ns done (pending_end=%zu)\n", tag,
                static_cast<unsigned long long>(stall_ns), r.pending_end);
  }
}

// ---- Part 2: deterministic counters (the CI gate) ---------------------

template <typename Policy>
bool run_counters(const char* tag) {
  using Array = rcua::RCUArray<std::uint64_t, Policy>;
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});

  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.set_sink(nullptr);

  std::optional<reclaim::Qsbr> qsbr;

  typename Array::Options opts;
  opts.block_size = 64;
  // Parked view: every EBR drain must time out deterministically.
  opts.stall_policy.deadline_ns = 1;
  opts.stall_monitor = &monitor;
  if constexpr (Array::uses_qsbr) {
    qsbr.emplace();
    opts.qsbr = &*qsbr;
  }
  Array arr(cluster, /*initial_capacity=*/64, opts);

  // The laggard: a parked snapshot View (epoch/interval schemes) or a
  // registered participant that never checkpoints (QSBR).
  std::optional<typename Array::View> view;
  reclaim::Qsbr::Stats qsbr_base{};
  if constexpr (Array::uses_qsbr) {
    (void)arr.read(0);  // registers this thread as the laggard
    // Drain the construction-time deferral so the train starts at zero.
    drain_qsbr(cluster, *qsbr);
    qsbr_base = qsbr->stats();
  } else {
    view.emplace(arr);
  }
  const auto era_base = arr.ebr_stats_at(0);

  for (std::uint64_t n = 0; n < kTrain; ++n) arr.resize_add(64);

  std::size_t pending_end = 0;
  rcua::obs::StatLine line("comm_stat");
  line.kv("bench", "reclaim_bakeoff").kv("scheme", tag).kv("resizes", kTrain);
  if constexpr (Array::uses_qsbr) {
    const auto s = qsbr->stats();
    pending_end = qsbr->pending_total();
    line.kv("defers", s.defers - qsbr_base.defers);
  } else if constexpr (Array::uses_interval) {
    const auto s = arr.ebr_stats_at(0);
    pending_end = arr.reclaim_pending_objects();
    line.kv("retired", s.retired - era_base.retired)
        .kv("freed", s.freed - era_base.freed)
        .kv("era_advances", s.epoch_advances - era_base.epoch_advances)
        .kv("era_scans", s.era_scans - era_base.era_scans);
  } else {
    pending_end = arr.reclaim_pending_objects();
    line.kv("stalled_spines", arr.stalled_spines());
  }

  // Release the laggard; liveness demands a full drain.
  std::size_t pending_after_flush = 0;
  if constexpr (Array::uses_qsbr) {
    drain_qsbr(cluster, *qsbr);
    pending_after_flush = qsbr->pending_total();
  } else {
    view.reset();
    arr.reclaim_overflow();
    pending_after_flush = arr.reclaim_pending_objects();
  }
  line.kv("pending_end", static_cast<std::uint64_t>(pending_end))
      .kv("pending_after_flush",
          static_cast<std::uint64_t>(pending_after_flush))
      .print();

  // The headline, asserted: interval schemes hold a constant bound;
  // everything else holds one spine per resize. All drain to zero.
  bool ok = pending_after_flush == 0;
  if constexpr (Array::uses_interval) {
    ok = ok && pending_end <= kIntervalBound * cluster.num_locales();
  } else {
    ok = ok && pending_end == kTrain;
  }
  std::printf("deterministic %-6s pending_end=%zu after_flush=%zu %s\n", tag,
              pending_end, pending_after_flush, ok ? "ok" : "VIOLATION");
  return ok;
}

}  // namespace

int main() {
  Params p = Params::from_env({.block_size = 256});
  const auto stalls =
      rcua::util::env_u64_list("RCUA_STALL_LIST", {0, 2 * 1000 * 1000});
  const double stall_prob =
      static_cast<double>(rcua::util::env_u64("RCUA_STALL_PROB_M", 200)) / 1e6;
  const std::uint64_t resizes = rcua::util::env_u64("RCUA_RESIZES", 24);
  const auto readers = static_cast<std::uint32_t>(
      rcua::util::env_u64_list("RCUA_THREADS", {2}).front());

  std::printf("== Ablation: bounded-memory reclamation bake-off ==\n");
  std::printf(
      "workload       : %u readers under injected stalls (%.0f/M reads), "
      "%llu resize_adds per cell\n",
      readers, stall_prob * 1e6, static_cast<unsigned long long>(resizes));
  std::printf(
      "this run       : block=%zu mode=wallclock (stalls are real), then "
      "a deterministic %llu-resize train per scheme\n\n",
      p.block_size, static_cast<unsigned long long>(kTrain));

  rcua::util::Table table({"scheme", "stall_us", "resizes/s", "reads/s",
                           "hwm_kib", "pend_end", "leftover"});
  if (scheme_enabled("ebr")) {
    sweep_scheme<rcua::EbrPolicy>("ebr", stalls, stall_prob, readers, resizes,
                                  p, table);
  }
  if (scheme_enabled("legacy")) {
    sweep_scheme<rcua::LegacyEbrPolicy>("legacy", stalls, stall_prob, readers,
                                        resizes, p, table);
  }
  if (scheme_enabled("qsbr")) {
    sweep_scheme<rcua::QsbrPolicy>("qsbr", stalls, stall_prob, readers,
                                   resizes, p, table);
  }
  if (scheme_enabled("ibr")) {
    sweep_scheme<rcua::IbrPolicy>("ibr", stalls, stall_prob, readers, resizes,
                                  p, table);
  }
  if (scheme_enabled("he")) {
    sweep_scheme<rcua::HazardErasPolicy>("he", stalls, stall_prob, readers,
                                         resizes, p, table);
  }

  std::printf("\nunreclaimed memory under reader stalls:\n");
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);
  std::printf("\n");

  bool ok = true;
  if (scheme_enabled("ebr")) ok &= run_counters<rcua::EbrPolicy>("ebr");
  if (scheme_enabled("legacy")) {
    ok &= run_counters<rcua::LegacyEbrPolicy>("legacy");
  }
  if (scheme_enabled("qsbr")) ok &= run_counters<rcua::QsbrPolicy>("qsbr");
  if (scheme_enabled("ibr")) ok &= run_counters<rcua::IbrPolicy>("ibr");
  if (scheme_enabled("he")) ok &= run_counters<rcua::HazardErasPolicy>("he");

  if (!ok) {
    std::printf("\nBAKEOFF FAIL: a scheme broke its memory bound or never "
                "drained\n");
    return 1;
  }
  std::printf("\nbounded-memory contract holds: interval schemes <= %zu "
              "spines/locale, epoch/qsbr = train length, all drain to 0\n",
              kIntervalBound);
  return 0;
}
