#pragma once

// Shared harness of the wall-clock service benchmark (README.md):
// arguments, the metric report, latency histograms, op streams, the
// closed-loop client and open-loop mutator loops, and the rung timer
// of the traced run's per-layer ladder.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "platform/backoff.hpp"
#include "platform/timing.hpp"
#include "reclaim/qsbr.hpp"
#include "runtime/cluster.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Detector self-check: skip one of the benchmark's own writes (while
  /// updating its shadow), so verification must report exactly one
  /// failed op.
  bool drop_one_write = false;
};

/// Long-lived load tasks: nproc - 1 on the 4-core reference host, each on
/// its own locale of the 4-locale cluster. Fixed rather than read from
/// the host so a seed generates the same inputs everywhere.
inline constexpr std::uint32_t kBusyTasks = 3;
inline constexpr std::uint32_t kLocales = 4;
/// Two workers per locale: one runs a busy task, the other stays free
/// for the coforall fan-outs of resizes and migrations.
inline constexpr std::uint32_t kWorkersPerLocale = 2;
/// An untraced run alternates the two policies kRounds times, each round
/// a fresh set-up and one measured pass per policy, so both policies
/// sample the same stretches of host time; setup_s sums the per-policy
/// median set-up.
inline constexpr int kRounds = 3;
inline constexpr double kWarmupSeconds = 0.5;
/// One op in kSampleEvery is timed (plus every write that starts inside
/// a structural change): a clock read costs about as much as a cached
/// lookup, so timing every op would double the cost being measured.
inline constexpr std::uint64_t kSampleEvery = 8;

/// Op streams hold one op per word: an element index or key rank in the
/// low bits, kWriteBit set for an update.
inline constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
inline constexpr std::uint64_t kIndexMask = kWriteBit - 1;

/// Latency histogram: exact 1 ns buckets below 4096 ns, then 64
/// sub-buckets per power of two (1.6% wide). Mergeable, fixed size. The
/// library's log2 histograms would report a 200 ns p50 as 128 ns.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) noexcept {
    ++counts_[bucket(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank q-quantile (bucket midpoint above 4096 ns); 0 if empty.
  [[nodiscard]] double percentile(double q) const noexcept;

 private:
  static constexpr std::uint64_t kLinear = 4096;
  static constexpr int kLinearBits = 12;
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kBuckets =
      kLinear + (64 - kLinearBits) * (std::size_t{1} << kSubBits);

  static std::size_t bucket(std::uint64_t v) noexcept {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + static_cast<std::size_t>(e - kLinearBits) *
                         (std::size_t{1} << kSubBits) +
           static_cast<std::size_t>(sub);
  }
  static double midpoint(std::size_t b) noexcept;

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Every metric by name with its unit, plus the op ledger; prints the
/// human-readable table and the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void note(const std::string& line) { notes_.push_back(line); }
  [[nodiscard]] double value(const std::string& name) const {
    return metrics_.at(name).value;
  }
  void print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();

/// Median of `v` (linearly interpolated); 0 when empty.
double median(std::vector<double> v);

/// Each measured pass is cut into kSlices equal slices, and a policy's
/// throughput and latency percentiles are medians over its slices from
/// every round: other tenants' cache and memory traffic moves the host's
/// speed in bursts of seconds, and a median over slices is steadier than
/// one figure over the whole pass. The slice series are printed with the
/// metrics.
inline constexpr std::size_t kSlices = 20;

/// The phase clock shared by one phase's busy tasks: warm-up from
/// `start`, measured from `measure_start` until `end`.
struct Window {
  std::uint64_t start = 0;
  std::uint64_t measure_start = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::size_t slice_of(std::uint64_t now) const noexcept {
    const std::uint64_t len =
        std::max<std::uint64_t>((end - measure_start) / kSlices, 1);
    return std::min<std::size_t>((now - measure_start) / len, kSlices - 1);
  }
};

/// The last of `n` arriving busy tasks fixes the window; the rest spin
/// until it is published, so every task starts on the same clock.
class StartGate {
 public:
  StartGate(std::uint32_t n, double measure_seconds)
      : n_(n),
        warmup_ns_(static_cast<std::uint64_t>(kWarmupSeconds * 1e9)),
        measure_ns_(static_cast<std::uint64_t>(measure_seconds * 1e9)) {}

  Window arrive() {
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      Window w;
      w.start = rcua::plat::now_ns();
      w.measure_start = w.start + warmup_ns_;
      w.end = w.measure_start + measure_ns_;
      window_ = w;
      open_.store(true, std::memory_order_release);
    }
    while (!open_.load(std::memory_order_acquire)) rcua::plat::cpu_relax();
    return window_;
  }

 private:
  const std::uint32_t n_;
  const std::uint64_t warmup_ns_;
  const std::uint64_t measure_ns_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<bool> open_{false};
  Window window_;
};

/// Runs body(task) as kBusyTasks long-lived tasks, task t on locale t,
/// and waits for all of them.
template <typename Body>
void run_busy_tasks(rcua::rt::Cluster& cluster, Body&& body) {
  cluster.coforall_locales([&](std::uint32_t l) {
    if (l < kBusyTasks) body(l);
  });
}

/// Runs fn() as one task on locale 0 and waits: data-plane work never
/// runs on the main thread, which therefore never joins a QSBR domain
/// it could then hold back while it sleeps in a join.
template <typename Fn>
void on_locale0(rcua::rt::Cluster& cluster, Fn&& fn) {
  cluster.coforall_locales([&](std::uint32_t l) {
    if (l == 0) fn();
  });
}

/// The ladder's op sample: the element indices (or key ranks) of the first
/// kRungSample ops of client 0's stream.
std::vector<std::uint64_t> ladder_sample(
    const std::vector<std::vector<std::uint64_t>>& streams);

/// Called once a phase's cluster has joined its pool threads, so no QSBR
/// defer list can change: returns the backlog the pass left on the global
/// domain, then frees it (nothing can hold a reference once the structure
/// is gone).
std::size_t drain_qsbr_backlog();

/// Odd while a structural change is in progress (bumped before and after
/// each change).
using ChangeSeq = std::atomic<std::uint64_t>;

/// One client's results; cache-line aligned so clients' counters never
/// share a line.
struct alignas(128) ClientStats {
  std::uint64_t attempted = 0;  ///< every op, warm-up included
  std::uint64_t measured = 0;   ///< ops completed in the measured window
  std::uint64_t failed = 0;
  /// Per slice of the measured window: ops completed, timed reads, timed
  /// writes.
  std::vector<std::uint64_t> ops = std::vector<std::uint64_t>(kSlices, 0);
  std::vector<LatencyHistogram> read = std::vector<LatencyHistogram>(kSlices);
  std::vector<LatencyHistogram> write = std::vector<LatencyHistogram>(kSlices);
  /// Timed writes that overlapped a change to their key (whole window).
  LatencyHistogram write_in_change;
};

template <typename Op>
bool run_op(Op& op, std::uint64_t o) noexcept {
  try {
    return op(o);
  } catch (const std::exception&) {
    return false;
  } catch (...) {
    return false;
  }
}

/// Closed loop over `stream` (cycled) until w.end. `op(o)` performs one
/// op and returns false on a wrong result; an exception also counts as
/// failed. `seq_of(o)` names the ChangeSeq covering op o's key (nullptr:
/// none). QSBR clients checkpoint every 1024 ops.
template <typename Op, typename SeqOf>
void closed_loop(const std::vector<std::uint64_t>& stream, const Window& w,
                 bool qsbr, ClientStats& st, Op&& op, SeqOf&& seq_of) {
  const std::size_t n = stream.size();
  std::size_t pos = 0;
  bool measuring = false;
  std::size_t slice = 0;
  for (std::uint64_t k = 0;; ++k) {
    if ((k & 63) == 0) {
      const std::uint64_t now = rcua::plat::now_ns();
      if (now >= w.end) break;
      measuring = now >= w.measure_start;
      if (measuring) slice = w.slice_of(now);
      if (qsbr && (k & 1023) == 0) rcua::reclaim::Qsbr::global().checkpoint();
    }
    const std::uint64_t o = stream[pos];
    if (++pos == n) pos = 0;
    const bool is_write = (o & kWriteBit) != 0;
    const ChangeSeq* seq = seq_of(o);
    const std::uint64_t s0 =
        seq != nullptr ? seq->load(std::memory_order_acquire) : 0;
    bool ok;
    if (measuring &&
        ((k % kSampleEvery) == 0 || (is_write && (s0 & 1) != 0))) {
      const std::uint64_t t0 = rcua::plat::now_ns();
      ok = run_op(op, o);
      const std::uint64_t dt = rcua::plat::now_ns() - t0;
      if (ok && !is_write) st.read[slice].record(dt);
      if (ok && is_write) {
        st.write[slice].record(dt);
        if (seq != nullptr &&
            ((s0 & 1) != 0 || seq->load(std::memory_order_acquire) != s0)) {
          st.write_in_change.record(dt);
        }
      }
    } else {
      ok = run_op(op, o);
    }
    ++st.attempted;
    if (measuring) {
      ++st.measured;
      ++st.ops[slice];
    }
    if (!ok) ++st.failed;
  }
}

struct MutatorStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t measured = 0;  ///< changes scheduled in the measured window
  std::uint64_t busy_ns = 0;   ///< time inside measured changes
  std::uint64_t late_max_ns = 0;
  /// Measured changes, each timed from its scheduled start.
  LatencyHistogram latency;

  void merge(const MutatorStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    measured += o.measured;
    busy_ns += o.busy_ns;
    late_max_ns = std::max(late_max_ns, o.late_max_ns);
    latency.merge(o.latency);
  }
};

inline constexpr std::uint64_t kSpinNs = 200'000;

/// Open loop: change k is due at w.start + k * period_ns and is timed from
/// that due time, so an overrun delays (and is charged to) later changes.
/// `change(k)` returns false on a wrong result. QSBR mutators checkpoint
/// after each change.
template <typename Change>
void open_loop(const Window& w, std::uint64_t period_ns, bool qsbr,
               MutatorStats& st, Change&& change) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t due = w.start + k * period_ns;
    if (due >= w.end) break;
    // Sleep through most of the gap, leaving the core to the coforall
    // fan-outs, and spin only the last kSpinNs so a change starts on time.
    if (const std::uint64_t now = rcua::plat::now_ns(); due > now + kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while (rcua::plat::now_ns() < due) rcua::plat::cpu_relax();
    const std::uint64_t started = rcua::plat::now_ns();
    const bool ok = run_op(change, k);
    const std::uint64_t done = rcua::plat::now_ns();
    if (qsbr) rcua::reclaim::Qsbr::global().checkpoint();
    ++st.attempted;
    if (!ok) ++st.failed;
    if (due >= w.measure_start) {
      ++st.measured;
      st.busy_ns += done - started;
      st.late_max_ns = std::max(st.late_max_ns, started - due);
      st.latency.record(done - due);
    }
  }
}

/// Keeps `v` (and the load producing it) from being optimized away.
template <typename T>
inline void keep(const T& v) noexcept {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Rungs of the per-layer ladder time one layer's entry point replayed
/// over a sample of the workload's own ops (kRungSample ops, cycled; the
/// sample's cache lines and pages stay cache- and TLB-resident, so the
/// rung prices the code path rather than DRAM). A rung is the median
/// over kRungBatches passes of one pass's time per op. Tracing is off
/// while timing; afterwards the first kSpanOps ops are replayed once
/// more, each call wrapped in an obs::TraceSpan whose arg is the op's id
/// (its 1-based position in the sample), so one sampled op's spans share
/// that id in the exported trace.
inline constexpr std::size_t kRungSample = 512;
inline constexpr int kRungBatches = 31;
inline constexpr std::size_t kSpanOps = 64;

template <typename Call>
double rung_ns(const char* span_name, std::size_t n, Call&& call) {
  for (std::size_t j = 0; j < n; ++j) call(j);  // warm pass
  std::vector<double> per_op;
  per_op.reserve(kRungBatches);
  for (int b = 0; b < kRungBatches; ++b) {
    const std::uint64_t t0 = rcua::plat::now_ns();
    for (std::size_t j = 0; j < n; ++j) call(j);
    per_op.push_back(static_cast<double>(rcua::plat::now_ns() - t0) /
                     static_cast<double>(n));
  }
  rcua::obs::set_trace_enabled(true);
  for (std::size_t j = 0; j < std::min(n, kSpanOps); ++j) {
    rcua::obs::TraceSpan span(span_name, "perfbench", j + 1);
    call(j);
  }
  rcua::obs::set_trace_enabled(false);
  return median(std::move(per_op));
}

/// Duration in microseconds of one call, run inside an obs::TraceSpan
/// whose arg is `id` (the span records only while tracing is on).
template <typename Call>
double span_us(const char* span_name, std::uint64_t id, Call&& call) {
  rcua::obs::TraceSpan span(span_name, "perfbench", id);
  const std::uint64_t t0 = rcua::plat::now_ns();
  call();
  return static_cast<double>(rcua::plat::now_ns() - t0) * 1e-3;
}

/// Median duration, in microseconds, of `reps` single calls (structural
/// entry points too slow and too stateful to batch), each traced as one
/// sampled op.
template <typename Call>
double rung_us(const char* span_name, int reps, Call&& call) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  rcua::obs::set_trace_enabled(true);
  for (int r = 0; r < reps; ++r) {
    us.push_back(span_us(span_name, static_cast<std::uint64_t>(r) + 1,
                         [&] { call(r); }));
  }
  rcua::obs::set_trace_enabled(false);
  return median(std::move(us));
}

/// Layer-independent rungs, measured on every workload: the clock, the
/// simulator charge hook, the reclaimers' read sections, an empty
/// coforall fan-out, and the unsynchronized-array floor over `indices`.
void common_rungs(rcua::rt::Cluster& cluster,
                  const std::vector<std::uint64_t>& indices,
                  std::size_t capacity, Report& report);

/// Modelled remote traffic (CommLayer totals) and task-pool fallbacks,
/// summed over the measured passes of both phases. Wall clock cannot show
/// what aggregation or pipelining save, so these stay counts.
struct Traffic {
  std::uint64_t ops = 0;
  std::uint64_t changes = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t executes = 0;
  std::uint64_t overflow_tasks = 0;

  static Traffic mark(rcua::rt::Cluster& c) {
    Traffic t;
    t.gets = c.comm().total_gets();
    t.puts = c.comm().total_puts();
    t.executes = c.comm().total_executes();
    t.overflow_tasks = c.pool().overflow_tasks();
    return t;
  }
  /// Adds what `c` counted since `before`, over `ops` client ops and
  /// `changes` structural changes.
  void add_since(const Traffic& before, rcua::rt::Cluster& c,
                 std::uint64_t n_ops, std::uint64_t n_changes) {
    const Traffic now = mark(c);
    ops += n_ops;
    changes += n_changes;
    gets += now.gets - before.gets;
    puts += now.puts - before.puts;
    executes += now.executes - before.executes;
    overflow_tasks += now.overflow_tasks - before.overflow_tasks;
  }
  void report(Report& r) const {
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    r.metric("rt.comm.gets_per_op", static_cast<double>(gets) / n, "count/op");
    r.metric("rt.comm.puts_per_op", static_cast<double>(puts) / n, "count/op");
    if (changes != 0) {
      r.metric("rt.comm.executes_per_change",
               static_cast<double>(executes) / static_cast<double>(changes),
               "count/change");
    }
    r.metric("rt.pool.overflow_tasks", static_cast<double>(overflow_tasks),
             "count");
  }
};

/// EBR epoch advances of one RCUArray, summed over its locales.
template <typename Array>
std::uint64_t epoch_advances(const Array& arr) {
  std::uint64_t n = 0;
  for (std::uint32_t l = 0; l < kLocales; ++l) {
    n += arr.ebr_stats_at(l).epoch_advances;
  }
  return n;
}

/// Retired-but-unreclaimed bytes and EBR epoch advances of a
/// ShardedCollection, summed over its shards.
template <typename Coll>
std::size_t pending_bytes_of_shards(Coll& coll) {
  std::size_t n = 0;
  for (std::size_t s = 0; s < coll.shard_count(); ++s) {
    n += coll.shard(s).reclaim_pending_bytes();
  }
  return n;
}
template <typename Coll>
std::uint64_t epoch_advances_of_shards(Coll& coll) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < coll.shard_count(); ++s) {
    n += epoch_advances(coll.shard(s));
  }
  return n;
}

/// Policy suffix of per-phase metric names.
template <typename Policy>
std::string sfx(const std::string& name) {
  return name + (Policy::is_qsbr ? ".qsbr" : ".ebr");
}

/// What one policy's measured passes saw, gathered over its rounds: the
/// per-slice end-to-end samples, the mutator's changes, the set-up times
/// and the log2 buckets of the rcua.rcu.grace_ns histogram.
class PhaseStats {
 public:
  void add_setup(double seconds) { setup_s_.push_back(seconds); }
  /// Adds one pass's clients (and mutator, if the workload has one).
  void add_pass(const std::vector<ClientStats>& clients, double seconds,
                const MutatorStats* mutator);
  /// Starts/ends a measured pass's share of the grace-period histogram.
  void grace_begin();
  void grace_end();
  [[nodiscard]] double setup_median() const { return median(setup_s_); }
  /// Reports the end-to-end metrics (and mutator metrics, if any) under
  /// the policy suffix.
  void report(const std::string& suffix, Report& report) const;
  /// Lower bound of the bucket holding the q-quantile grace period, like
  /// obs::Histogram::percentile_lower_bound.
  [[nodiscard]] double grace_percentile(double q) const;

 private:
  std::vector<double> setup_s_;
  std::vector<double> ops_per_s_, read_p50_, read_p99_, write_p50_,
      write_p99_;
  LatencyHistogram read_all_;
  LatencyHistogram write_all_;
  LatencyHistogram in_change_;
  MutatorStats mutator_;
  bool has_mutator_ = false;
  double seconds_ = 0.0;
  std::vector<std::uint64_t> grace_before_ = std::vector<std::uint64_t>(65, 0);
  std::vector<std::uint64_t> grace_ = std::vector<std::uint64_t>(65, 0);
};

/// Runs one workload: an untraced run alternates kRounds rounds of
/// (QSBR phase, EBR phase), each a timed set-up, one measured pass of
/// seconds / (2 * kRounds) and a teardown. The traced run sets each
/// policy up once and runs the same streams untraced then traced, each
/// for seconds / 4, reports the difference as the tracing overhead, and
/// replays the per-layer ladder. A Phase provides setup(), teardown(),
/// pass(seconds, record, round) returning client ops/s, ladder(), and
/// finish() reporting its metrics.
template <typename QsbrPhase, typename EbrPhase>
void run_phases(const Args& args, QsbrPhase& qsbr, EbrPhase& ebr,
                Report& report) {
  if (!args.trace) {
    const double secs = args.seconds / (2.0 * kRounds);
    for (int r = 0; r < kRounds; ++r) {
      qsbr.setup();
      qsbr.pass(secs, true, r);
      qsbr.teardown();
      ebr.setup();
      ebr.pass(secs, true, r);
      ebr.teardown();
    }
  } else {
    auto traced = [&](auto& phase, const char* suffix) {
      phase.setup();
      const double untraced = phase.pass(args.seconds / 4.0, true, 0);
      rcua::obs::set_trace_enabled(true);
      const double with_trace = phase.pass(args.seconds / 4.0, false, 1);
      rcua::obs::set_trace_enabled(false);
      report.metric(std::string("bench.tracing_overhead_pct") + suffix,
                    100.0 * (1.0 - with_trace / untraced), "%");
      phase.ladder();
      phase.teardown();
    };
    traced(qsbr, ".qsbr");
    traced(ebr, ".ebr");
  }
  qsbr.finish();
  ebr.finish();
}

/// Reports setup_s (the two policies' median set-ups) and, for the traced
/// run, the traffic counts, the common rungs (the floor array holding
/// `capacity` elements, replayed over `indices`) and core.self_ns =
/// core.index_ns - baseline.index_ns per policy.
void finish_run(const Args& args, double setup_qsbr, double setup_ebr,
                const Traffic& traffic,
                const std::vector<std::uint64_t>& indices,
                std::size_t capacity, Report& report);

/// Workload entry points (one per translation unit).
void run_kv_zipf(const Args& args, Report& report);
void run_elastic_grow(const Args& args, Report& report);
void run_migrate_rmw(const Args& args, Report& report);

}  // namespace perfbench
