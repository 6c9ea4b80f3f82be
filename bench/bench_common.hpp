#pragma once

// Shared benchmark harness for the paper-figure reproductions.
//
// The host is assumed to be a commodity machine, not a Cray: throughput
// is computed in *virtual time* from the simulation layer (see
// src/sim/ and DESIGN.md §2) unless RCUA_WALLCLOCK=1 is set. Every
// parameter is env-overridable:
//
//   RCUA_LOCALES          comma list, e.g. "2,4,8,16,32"
//   RCUA_TASKS_PER_LOCALE default 44 (the paper's per-node task count)
//   RCUA_OPS_PER_TASK     per-figure default (scaled down from the paper)
//   RCUA_ARRAY_ELEMS      array capacity for indexing benches
//   RCUA_BLOCK_SIZE       RCUArray BlockSize (paper uses 1024)
//   RCUA_SEED             workload RNG seed
//   RCUA_WALLCLOCK        1 = measure wall time instead of virtual time

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "rcua.hpp"
#include "obs/metrics.hpp"
#include "platform/rng.hpp"
#include "platform/timing.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rcua::bench {

struct Params {
  std::vector<std::uint64_t> locales{2, 4, 8, 16, 32};
  std::uint32_t tasks_per_locale = 44;
  std::uint64_t ops_per_task = 1024;
  std::uint64_t array_elems = 1ULL << 20;
  std::size_t block_size = 1024;
  std::uint64_t seed = 0xC0FFEE;
  bool wallclock = false;

  static Params from_env(Params defaults) {
    Params p = defaults;
    p.locales = util::env_u64_list("RCUA_LOCALES", p.locales);
    p.tasks_per_locale = static_cast<std::uint32_t>(
        util::env_u64("RCUA_TASKS_PER_LOCALE", p.tasks_per_locale));
    p.ops_per_task = util::env_u64("RCUA_OPS_PER_TASK", p.ops_per_task);
    p.array_elems = util::env_u64("RCUA_ARRAY_ELEMS", p.array_elems);
    p.block_size = util::env_u64("RCUA_BLOCK_SIZE", p.block_size);
    p.seed = util::env_u64("RCUA_SEED", p.seed);
    p.wallclock = util::env_bool("RCUA_WALLCLOCK", p.wallclock);
    return p;
  }

  void print_banner(const char* name, const char* paper_workload,
                    const char* paper_shape) const {
    std::printf("== %s ==\n", name);
    std::printf("paper workload : %s\n", paper_workload);
    std::printf("paper shape    : %s\n", paper_shape);
    std::printf(
        "this run       : tasks/locale=%u ops/task=%llu array=%llu "
        "block=%zu mode=%s\n\n",
        tasks_per_locale, static_cast<unsigned long long>(ops_per_task),
        static_cast<unsigned long long>(array_elems), block_size,
        wallclock ? "wallclock" : "virtual-time");
  }
};

enum class Pattern { kRandom, kSequential };

inline const char* pattern_name(Pattern p) {
  return p == Pattern::kRandom ? "random" : "sequential";
}

/// Per-operation latency sampler behind the `obs_stat` pipeline
/// (DESIGN.md §12): each task owns one lane (no sharing, no locks in
/// the measured region), ops are timed in *virtual* time when a
/// TaskClock is attached and wall time otherwise, and emit() merges the
/// lanes into p50/p99/p999 printed through obs::StatLine. Reading the
/// clock charges nothing, so sampling never moves a throughput number.
///
/// The `det` flag emitted with each line tells scripts/check_bench_gate
/// whether the percentiles are exact-match gated: virtual-time
/// latencies are deterministic only for impls whose charges are pure
/// per-task functions of the workload (see kDetVtime on the impl
/// adapters); impls that contend on shared sim::VirtualResource lines
/// depend on real-thread arrival order, so their percentiles are
/// recorded for the artifact but not gated.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t lanes) : lanes_(lanes) {}

  [[nodiscard]] static std::uint64_t clock_ns() noexcept {
    return sim::enabled() ? sim::now_v() : plat::now_ns();
  }

  /// The caller guarantees lane `i` is touched by exactly one task.
  void sample(std::size_t i, std::uint64_t start_ns) {
    lanes_[i].push_back(static_cast<double>(clock_ns() - start_ns));
  }

  void reserve(std::size_t i, std::size_t n) { lanes_[i].reserve(n); }

  /// Appends n/p50_ns/p99_ns/p999_ns to `line` and prints it. Call
  /// after the coforall joined (the join is the happens-before edge
  /// that makes the lanes safe to merge).
  void emit(obs::StatLine line, bool deterministic) const {
    std::vector<double> all;
    std::size_t total = 0;
    for (const auto& lane : lanes_) total += lane.size();
    all.reserve(total);
    for (const auto& lane : lanes_) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    std::sort(all.begin(), all.end());
    line.kv("det", static_cast<std::uint64_t>(deterministic ? 1 : 0))
        .kv("n", static_cast<std::uint64_t>(all.size()))
        .kv("p50_ns", quantile_u64(all, 0.50))
        .kv("p99_ns", quantile_u64(all, 0.99))
        .kv("p999_ns", quantile_u64(all, 0.999))
        .print();
  }

 private:
  [[nodiscard]] static std::uint64_t quantile_u64(
      const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0;
    return static_cast<std::uint64_t>(
        std::llround(util::quantile_sorted(sorted, q)));
  }

  std::vector<std::vector<double>> lanes_;
};

/// Measures one coforall_tasks region: returns aggregate throughput in
/// operations per second of (virtual or wall) time.
template <typename Body>
double measure_tasks(rt::Cluster& cluster, std::uint32_t tasks_per_locale,
                     std::uint64_t total_ops, bool wallclock, Body&& body) {
  if (wallclock) {
    plat::Timer timer;
    cluster.coforall_tasks(tasks_per_locale, body);
    const double s = timer.elapsed_s();
    return s > 0 ? static_cast<double>(total_ops) / s : 0.0;
  }
  sim::TaskClock root;
  {
    sim::ClockScope scope(root);
    cluster.coforall_tasks(tasks_per_locale, body);
  }
  const double s = static_cast<double>(root.vtime_ns) * 1e-9;
  return s > 0 ? static_cast<double>(total_ops) / s : 0.0;
}

// ---- Implementation adapters (uniform construction + naming) ----------

struct EbrArrayImpl {
  /// Owned reader slots charge flat per-section costs with no shared
  /// line to contend on, so per-op virtual times replay exactly.
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "EBRArray";
  using type = RCUArray<std::uint64_t, EbrPolicy>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, typename type::Options{bs, nullptr});
  }
};

struct LegacyEbrArrayImpl {
  /// Whether virtual-time per-op latencies replay exactly across runs
  /// (pure per-task charges; see LatencyRecorder).
  static constexpr bool kDetVtime = false;
  static constexpr const char* kName = "EBRArray-legacy";
  using type = RCUArray<std::uint64_t, LegacyEbrPolicy>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, typename type::Options{bs, nullptr});
  }
};

struct QsbrArrayImpl {
  /// Whether virtual-time per-op latencies replay exactly across runs
  /// (pure per-task charges; see LatencyRecorder).
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "QSBRArray";
  using type = RCUArray<std::uint64_t, QsbrPolicy>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, typename type::Options{bs, nullptr});
  }
};

struct IbrArrayImpl {
  /// Each thread publishes into its own era reservation slot with flat
  /// charges, so per-op virtual times replay exactly.
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "IBRArray";
  using type = RCUArray<std::uint64_t, IbrPolicy>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, typename type::Options{bs, nullptr});
  }
};

struct HazardErasArrayImpl {
  /// Each thread publishes into its own era reservation slot with flat
  /// charges, so per-op virtual times replay exactly.
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "HEArray";
  using type = RCUArray<std::uint64_t, HazardErasPolicy>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, typename type::Options{bs, nullptr});
  }
};

struct ChapelArrayImpl {
  /// Whether virtual-time per-op latencies replay exactly across runs
  /// (pure per-task charges; see LatencyRecorder).
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "ChapelArray";
  using type = baseline::UnsafeArray<std::uint64_t>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, bs);
  }
};

struct SyncArrayImpl {
  /// Whether virtual-time per-op latencies replay exactly across runs
  /// (pure per-task charges; see LatencyRecorder).
  static constexpr bool kDetVtime = false;
  static constexpr const char* kName = "SyncArray";
  using type = baseline::SyncArray<std::uint64_t>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, bs);
  }
};

struct RwlockArrayImpl {
  /// Whether virtual-time per-op latencies replay exactly across runs
  /// (pure per-task charges; see LatencyRecorder).
  static constexpr bool kDetVtime = false;
  static constexpr const char* kName = "RwlockArray";
  using type = baseline::RwlockArray<std::uint64_t>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, bs);
  }
};

struct HazardArrayImpl {
  /// A read charges flat costs and its hazard record is the thread's own
  /// slot, so per-op virtual times replay exactly.
  static constexpr bool kDetVtime = true;
  static constexpr const char* kName = "HazardArray";
  using type = baseline::HazardArray<std::uint64_t>;
  static std::unique_ptr<type> make(rt::Cluster& c, std::size_t cap,
                                    std::size_t bs) {
    return std::make_unique<type>(c, cap, bs);
  }
};

/// The Figure 2 update-indexing workload for one (impl, locale count):
/// every task performs ops_per_task update operations on random or
/// sequential indices. When `bench_name` is non-null every write is
/// individually timed and the merged p50/p99/p999 emitted as an
/// `obs_stat` line (exact-match gated in CI when Impl::kDetVtime).
template <typename Impl>
double run_indexing(const Params& p, std::uint64_t num_locales,
                    Pattern pattern, const char* bench_name = nullptr) {
  rt::Cluster cluster({.num_locales = static_cast<std::uint32_t>(num_locales),
                       .workers_per_locale = p.tasks_per_locale + 2});
  auto arr = Impl::make(cluster, p.array_elems, p.block_size);
  const std::uint64_t cap = p.array_elems;
  const std::uint64_t total_ops = num_locales *
                                  static_cast<std::uint64_t>(p.tasks_per_locale) *
                                  p.ops_per_task;

  const std::size_t lanes =
      static_cast<std::size_t>(num_locales) * p.tasks_per_locale;
  LatencyRecorder latency(bench_name != nullptr ? lanes : 0);
  const double tput = measure_tasks(
      cluster, p.tasks_per_locale, total_ops, p.wallclock,
      [&](std::uint32_t l, std::uint32_t t) {
        const std::uint64_t gid =
            static_cast<std::uint64_t>(l) * p.tasks_per_locale + t;
        const auto lane = static_cast<std::size_t>(gid);
        if (bench_name != nullptr) latency.reserve(lane, p.ops_per_task);
        if (pattern == Pattern::kRandom) {
          plat::Xoshiro256 rng(plat::mix64(p.seed ^ (gid + 1)));
          for (std::uint64_t n = 0; n < p.ops_per_task; ++n) {
            const std::uint64_t i = rng.next_below(cap);
            if (bench_name != nullptr) {
              const std::uint64_t t0 = LatencyRecorder::clock_ns();
              arr->write(i, n);
              latency.sample(lane, t0);
            } else {
              arr->write(i, n);
            }
          }
        } else {
          const std::uint64_t start = (gid * p.ops_per_task) % cap;
          for (std::uint64_t n = 0; n < p.ops_per_task; ++n) {
            const std::uint64_t i = (start + n) % cap;
            if (bench_name != nullptr) {
              const std::uint64_t t0 = LatencyRecorder::clock_ns();
              arr->write(i, n);
              latency.sample(lane, t0);
            } else {
              arr->write(i, n);
            }
          }
        }
      });

  // Machine-readable reclaimer counters for the bench-json pipeline
  // (scripts/run_benchmarks.py).
  constexpr bool kHasEbrStats = requires {
    requires !Impl::type::uses_qsbr;
    arr->ebr_stats_at(0u);
  };
  if constexpr (kHasEbrStats) {
    std::uint64_t reads = 0, retries = 0, advances = 0;
    for (std::uint64_t l = 0; l < num_locales; ++l) {
      const auto s = arr->ebr_stats_at(static_cast<std::uint32_t>(l));
      reads += s.reads;
      retries += s.read_retries;
      advances += s.epoch_advances;
    }
    obs::StatLine("bench_stat")
        .kv("impl", Impl::kName)
        .kv("locales", num_locales)
        .kv("reads", reads)
        .kv("retries", retries)
        .kv("epoch_advances", advances)
        .print();
  }

  if (bench_name != nullptr) {
    // Per-op latency percentiles (virtual-time unless RCUA_WALLCLOCK=1;
    // wallclock runs are inherently nondeterministic, so not gated).
    latency.emit(obs::StatLine("obs_stat")
                     .kv("bench", bench_name)
                     .kv("impl", Impl::kName)
                     .kv("locales", num_locales),
                 Impl::kDetVtime && !p.wallclock);
  }

  // QSBR best case in the paper uses no checkpoints; drop whatever the
  // construction-time resizes deferred before tearing down.
  reclaim::Qsbr::global().flush_unsafe();
  return tput;
}

/// Runs the full Figure 2 style sweep and prints the table. A non-null
/// `bench_name` turns on per-op latency sampling (obs_stat lines).
template <typename... Impls>
void run_indexing_figure(const Params& p, Pattern pattern,
                         const char* bench_name = nullptr) {
  std::vector<std::string> header{"locales"};
  (header.push_back(Impls::kName), ...);
  util::Table table(header);
  for (const std::uint64_t L : p.locales) {
    std::vector<std::string> row{std::to_string(L)};
    (row.push_back(
         util::Table::num(run_indexing<Impls>(p, L, pattern, bench_name))),
     ...);
    table.add_row(std::move(row));
    std::printf("... locales=%llu done\n",
                static_cast<unsigned long long>(L));
  }
  std::printf("\nthroughput (ops/sec, %s indexing):\n", pattern_name(pattern));
  table.print(std::cout);
  std::printf("\ncsv:\n");
  table.print_csv(std::cout);
}

}  // namespace rcua::bench
