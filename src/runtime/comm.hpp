#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace rcua::rt {

class FaultPlan;

/// Snapshot of one locale's communication counters. In Chapel these
/// PUT/GET operations happen behind the scenes; the counters make the
/// "behind the scenes" observable — tests assert on locality properties
/// (e.g. RCUArray metadata privatization keeps reads node-local) and
/// benches report communication volume next to throughput.
///
/// The live counters are obs::Counter cells in the CommLayer's metrics
/// registry (one stripe per locale); this struct is the thin plain-value
/// view read back through CommLayer::stats_at.
struct CommStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t executes = 0;
  // Async comm layer (rt::AsyncComm) counters. `async_issued` /
  // `async_completed` / `async_cancelled` are lifetime totals;
  // `async_max_inflight` is the high-water mark of ops outstanding to a
  // single destination from this locale. The exactly-once invariant is
  //   async_issued == async_completed + async_cancelled
  // once every session on the locale has drained or been destroyed.
  std::uint64_t async_issued = 0;
  std::uint64_t async_completed = 0;
  std::uint64_t async_cancelled = 0;
  std::uint64_t async_max_inflight = 0;
  // Per-locale block cache (rt::BlockCache) counters. Deterministic for
  // a fixed workload with one consumer task per locale (the bench-gate
  // configs); a hit replaces a would-be remote GET/execute, a fill is
  // the one remote execute that fetched the whole block, an eviction is
  // a capacity- or staleness-driven entry drop.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
};

/// The cluster's communication layer: counts one-sided operations by
/// *initiating* locale and charges virtual time for explicit remote
/// executions (element-access charging lives at the data-structure touch
/// sites via sim::touch_block, which sees cache behaviour the comm layer
/// cannot).
///
/// Every counter lives in a per-cluster obs::Registry (`registry()`)
/// with one cache-line-padded cell per locale, so the hot path is the
/// same single relaxed fetch_add the old ad-hoc atomics paid, while
/// snapshot(), the per-locale accessors, and the totals are all views
/// over the same cells — one aggregation path instead of three.
class CommLayer {
 public:
  explicit CommLayer(std::uint32_t num_locales);

  /// Records an element access from locale `src` to a block owned by
  /// `dst`; local accesses are not counted (they are not communication).
  void record_access(std::uint32_t src, std::uint32_t dst,
                     bool is_write) noexcept {
    if (src == dst) return;
    if (is_write) {
      puts_.add_at(src);
      obs::trace_instant("comm.put", "comm", dst);
    } else {
      gets_.add_at(src);
      obs::trace_instant("comm.get", "comm", dst);
    }
  }

  /// Records and charges a remote task execution (`on` statement body).
  /// Same-locale executions are free and uncounted.
  void record_execute(std::uint32_t src, std::uint32_t dst) noexcept;

  /// Counts a remote execution WITHOUT charging — the async comm layer
  /// charges through its channel model instead (issue carve-out at the
  /// initiator, launch latency folded into the completion time). Keeps
  /// the `executes` counter identical between sync and async modes so
  /// the bench gate's deterministic counters do not depend on the mode.
  void record_execute_async(std::uint32_t src, std::uint32_t dst) noexcept;

  /// Pipelined fan-out launch (coforall bodies): counts the execute,
  /// charges only the CPU-side issue carve-out
  /// (min(async_issue_ns, remote_execute_ns)), and returns the remainder
  /// of the launch latency — the part that overlaps with the other
  /// branches' launches — including any kSlowRemote fault delay.
  /// Same-locale launches are free, uncounted, and return 0.
  std::uint64_t issue_execute(std::uint32_t src, std::uint32_t dst) noexcept;

  /// Consults the installed FaultPlan's kSlowRemote rule for `dst` once
  /// and returns the extra delay (0 when no plan or the rule does not
  /// fire). FaultPlan rules are stateful (nth-consultation counting), so
  /// an async op must consult exactly once at issue — mirroring the one
  /// consultation per synchronous record_execute — to keep fault
  /// schedules deterministic across sync/async modes.
  std::uint64_t slow_remote_delay(std::uint32_t dst) noexcept;

  // Async counter hooks (called by rt::AsyncComm).
  void note_async_issued(std::uint32_t locale) noexcept;
  void note_async_completed(std::uint32_t locale) noexcept;
  void note_async_cancelled(std::uint32_t locale) noexcept;
  /// Raises the locale's in-flight high-water mark to at least `depth`.
  void note_async_inflight(std::uint32_t locale, std::size_t depth) noexcept;

  // Block-cache counter hooks (called by rt::BlockCache).
  void note_cache_hit(std::uint32_t locale) noexcept;
  void note_cache_miss(std::uint32_t locale) noexcept;
  void note_cache_fill(std::uint32_t locale) noexcept;
  void note_cache_evictions(std::uint32_t locale, std::uint64_t n) noexcept;

  // Per-locale accessors: thin views over the registry counters' cells.
  [[nodiscard]] std::uint64_t gets(std::uint32_t locale) const noexcept {
    return gets_.at(locale);
  }
  [[nodiscard]] std::uint64_t puts(std::uint32_t locale) const noexcept {
    return puts_.at(locale);
  }
  [[nodiscard]] std::uint64_t executes(std::uint32_t locale) const noexcept {
    return executes_.at(locale);
  }
  [[nodiscard]] std::uint64_t async_issued(
      std::uint32_t locale) const noexcept {
    return async_issued_.at(locale);
  }
  [[nodiscard]] std::uint64_t async_completed(
      std::uint32_t locale) const noexcept {
    return async_completed_.at(locale);
  }
  [[nodiscard]] std::uint64_t async_cancelled(
      std::uint32_t locale) const noexcept {
    return async_cancelled_.at(locale);
  }
  [[nodiscard]] std::uint64_t async_max_inflight(
      std::uint32_t locale) const noexcept {
    return async_max_inflight_.at(locale);
  }
  [[nodiscard]] std::uint64_t cache_hits(std::uint32_t locale) const noexcept {
    return cache_hits_.at(locale);
  }
  [[nodiscard]] std::uint64_t cache_misses(
      std::uint32_t locale) const noexcept {
    return cache_misses_.at(locale);
  }
  [[nodiscard]] std::uint64_t cache_fills(std::uint32_t locale) const noexcept {
    return cache_fills_.at(locale);
  }
  [[nodiscard]] std::uint64_t cache_evictions(
      std::uint32_t locale) const noexcept {
    return cache_evictions_.at(locale);
  }

  /// All of one locale's counters as a plain snapshot struct.
  [[nodiscard]] CommStats stats_at(std::uint32_t locale) const noexcept;

  // Totals: the registry counters' fold (sum; max for the high-water).
  [[nodiscard]] std::uint64_t total_gets() const noexcept {
    return gets_.value();
  }
  [[nodiscard]] std::uint64_t total_puts() const noexcept {
    return puts_.value();
  }
  [[nodiscard]] std::uint64_t total_executes() const noexcept {
    return executes_.value();
  }
  [[nodiscard]] std::uint64_t total_async_issued() const noexcept {
    return async_issued_.value();
  }
  [[nodiscard]] std::uint64_t total_async_completed() const noexcept {
    return async_completed_.value();
  }
  [[nodiscard]] std::uint64_t total_async_cancelled() const noexcept {
    return async_cancelled_.value();
  }
  /// Max over locales (a high-water mark does not sum meaningfully).
  [[nodiscard]] std::uint64_t max_async_inflight() const noexcept {
    return async_max_inflight_.value();
  }
  [[nodiscard]] std::uint64_t total_cache_hits() const noexcept {
    return cache_hits_.value();
  }
  [[nodiscard]] std::uint64_t total_cache_misses() const noexcept {
    return cache_misses_.value();
  }
  [[nodiscard]] std::uint64_t total_cache_fills() const noexcept {
    return cache_fills_.value();
  }
  [[nodiscard]] std::uint64_t total_cache_evictions() const noexcept {
    return cache_evictions_.value();
  }

  void reset() noexcept { registry_.reset(); }

  [[nodiscard]] std::uint32_t num_locales() const noexcept {
    return num_locales_;
  }

  /// This cluster's metrics registry. Comm/cache/async counters live
  /// here (NOT in obs::Registry::global()) so concurrently-live clusters
  /// never mix counts and reset() stays cluster-local.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// Chaos hook: a kSlowRemote rule matching the *destination* locale
  /// charges extra virtual time on each remote execute targeting it.
  /// Installed via Cluster::set_fault_plan.
  void set_fault_plan(FaultPlan* plan) noexcept {
    fault_plan_.store(plan, std::memory_order_release);
  }

 private:
  std::uint32_t num_locales_;
  obs::Registry registry_;  // declared before the counter handles
  obs::Counter& gets_;
  obs::Counter& puts_;
  obs::Counter& executes_;
  obs::Counter& async_issued_;
  obs::Counter& async_completed_;
  obs::Counter& async_cancelled_;
  obs::Counter& async_max_inflight_;  // Agg::kMax
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& cache_fills_;
  obs::Counter& cache_evictions_;
  std::atomic<FaultPlan*> fault_plan_{nullptr};
};

class AsyncComm;

namespace detail {

/// Type-erased per-op bookkeeping shared between a future and its
/// session. Not thread-safe by design: an AsyncComm session and every
/// future it hands out belong to ONE task (same contract as Aggregator).
struct AsyncOpCore {
  std::uint64_t completion_vtime = 0;  ///< virtual time the op lands
  std::uint32_t dst = 0;
  bool completed = false;
  bool cancelled = false;
  /// The issuing session; only dereferenced while !completed &&
  /// !cancelled, and the session's destructor cancels everything still
  /// pending, so a future can never reach a dangling session.
  AsyncComm* session = nullptr;
};

template <typename T>
struct AsyncOpState : AsyncOpCore {
  std::optional<T> value;
};

template <>
struct AsyncOpState<void> : AsyncOpCore {};

}  // namespace detail

/// Handle to one asynchronous comm operation issued through AsyncComm.
/// Copyable (shared state); `wait()` retires channel completions until
/// this op lands, `get()` additionally returns the GET value. Waiting on
/// a cancelled op throws — cancellation (session unwind/destruction)
/// means the op never ran and has no result.
template <typename T>
class future {
 public:
  future() = default;

  /// True when this future refers to an operation (default-constructed
  /// futures do not).
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool done() const noexcept {
    return state_ != nullptr && state_->completed;
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return state_ != nullptr && state_->cancelled;
  }

  /// Blocks (in virtual time: retires completions) until the op lands.
  void wait();
  /// wait(), then returns the operation's value (void for PUT/execute
  /// closures returning void).
  T get();

 private:
  friend class AsyncComm;
  explicit future(std::shared_ptr<detail::AsyncOpState<T>> state) noexcept
      : state_(std::move(state)) {}

  std::shared_ptr<detail::AsyncOpState<T>> state_;
};

struct AsyncCommOptions {
  /// Max ops in flight per destination before an issue stalls (retiring
  /// the destination's oldest completion first). 0 = read the
  /// RCUA_COMM_WINDOW environment variable (default 32); values are
  /// clamped to at least 1. window=1 degenerates to the synchronous
  /// model with *identical* virtual-time charges (see DESIGN.md §10).
  std::size_t window = 0;
};

/// Per-task asynchronous communication session (the futures/pipelining
/// layer of Jenkins' follow-up paper, modeled on bounded in-flight async
/// RPC): GET/PUT/execute return immediately with an rt::future after
/// paying only a CPU-side issue cost; the wire time occupies the
/// per-destination channel and the launch latency overlaps across
/// outstanding ops. Completions are delivered in issue order per
/// destination when the window fills, at `wait()`, or at `drain()`.
///
/// Contract (mirrors Aggregator):
///  * One session per task — NOT thread-safe.
///  * Local-destination ops run inline and return ready futures (local
///    work is not communication).
///  * Completion closures may touch memory pinned by an enclosing
///    read-side critical section, so ALL completions must be drained
///    before that section closes (DESIGN.md §10). The destructor
///    therefore CANCELS — never delivers — ops still pending, making
///    exception unwind out of the section safe.
class AsyncComm {
 public:
  using Options = AsyncCommOptions;

  /// Per-session counters (the per-locale aggregates live in CommStats).
  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::size_t max_inflight = 0;  ///< high-water, single destination
  };

  AsyncComm(CommLayer& comm, std::uint32_t here, Options options = {});
  ~AsyncComm();
  AsyncComm(const AsyncComm&) = delete;
  AsyncComm& operator=(const AsyncComm&) = delete;

  /// Async one-sided GET of `*src` owned by locale `dst`.
  template <typename T>
  future<T> get(std::uint32_t dst, const T* src) {
    auto state = std::make_shared<detail::AsyncOpState<T>>();
    if (dst == here_) {
      state->value.emplace(*src);
      state->completed = true;
      return future<T>(std::move(state));
    }
    comm_.record_access(here_, dst, /*is_write=*/false);
    issue(dst, /*weight=*/1, sim::CostModel::get().remote_get_ns, state,
          [state, src] { state->value.emplace(*src); });
    return future<T>(std::move(state));
  }

  /// Async one-sided PUT of `value` into `*dest` owned by locale `dst`.
  template <typename T>
  future<void> put(std::uint32_t dst, T* dest, T value) {
    auto state = std::make_shared<detail::AsyncOpState<void>>();
    if (dst == here_) {
      *dest = std::move(value);
      state->completed = true;
      return future<void>(std::move(state));
    }
    comm_.record_access(here_, dst, /*is_write=*/true);
    issue(dst, /*weight=*/1, sim::CostModel::get().remote_put_ns, state,
          [dest, v = std::move(value)]() mutable { *dest = std::move(v); });
    return future<void>(std::move(state));
  }

  /// Async remote execution of `fn` on locale `dst`, shipping `weight`
  /// elements' worth of payload (charged as wire time on the channel).
  /// Counts one `executes` per remote call — identical to the
  /// synchronous record_execute — so mode choice never shifts the bench
  /// gate's counters.
  template <typename F>
  auto execute(std::uint32_t dst, std::size_t weight, F&& fn)
      -> future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto state = std::make_shared<detail::AsyncOpState<R>>();
    if (dst == here_) {
      if constexpr (std::is_void_v<R>) {
        fn();
      } else {
        state->value.emplace(fn());
      }
      state->completed = true;
      return future<R>(std::move(state));
    }
    comm_.record_execute_async(here_, dst);
    issue(dst, weight, sim::CostModel::get().remote_execute_ns, state,
          [state, f = std::forward<F>(fn)]() mutable {
            if constexpr (std::is_void_v<R>) {
              f();
            } else {
              state->value.emplace(f());
            }
          });
    return future<R>(std::move(state));
  }

  /// Retires every in-flight completion, in global issue order. MUST run
  /// inside the read-side section pinning whatever the completion
  /// closures touch (DESIGN.md §10).
  void drain();

  /// Marks every pending op cancelled and drops its completion closure
  /// without running it. Returns the number cancelled. Used by the
  /// destructor (exception unwind) — a cancelled future's wait() throws.
  std::size_t cancel_pending() noexcept;

  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  [[nodiscard]] std::size_t inflight(std::uint32_t dst) const noexcept {
    return channels_[dst].inflight.size();
  }
  [[nodiscard]] std::size_t total_inflight() const noexcept {
    std::size_t n = 0;
    for (const Channel& ch : channels_) n += ch.inflight.size();
    return n;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  template <typename T>
  friend class future;

  struct Pending {
    std::shared_ptr<detail::AsyncOpCore> core;
    std::function<void()> deliver;
  };

  struct Channel {
    std::deque<Pending> inflight;
    /// Virtual time the destination's wire frees up: back-to-back sends
    /// to one locale serialize at bulk_copy_ns_per_elem per element,
    /// while sends to different locales overlap.
    std::uint64_t wire_ready = 0;
    /// Virtual time the destination finishes *processing* its last
    /// delivered op: a completion closure's own charges run on the
    /// destination's timeline (measured under a sub-clock at delivery),
    /// serializing per destination but overlapping across destinations.
    std::uint64_t proc_done = 0;
  };

  void issue(std::uint32_t dst, std::size_t weight, double latency_ns,
             std::shared_ptr<detail::AsyncOpCore> core,
             std::function<void()> deliver);
  /// Delivers the channel's oldest in-flight op (advancing the clock to
  /// its completion time).
  void retire_head(Channel& ch);
  /// Retires `core`'s channel in order until `core` completes.
  void await(detail::AsyncOpCore& core);

  CommLayer& comm_;
  std::uint32_t here_;
  std::size_t window_;
  std::vector<Channel> channels_;
  /// Issue order across all channels; drain() retires in this order so
  /// delivery is deterministic regardless of per-channel completion
  /// times. Entries already retired by window pressure or wait() are
  /// skipped.
  std::deque<std::shared_ptr<detail::AsyncOpCore>> issue_order_;
  Stats stats_;
};

template <typename T>
void future<T>::wait() {
  if (!state_) {
    throw std::logic_error("rt::future: wait() on an empty future");
  }
  if (state_->cancelled) {
    throw std::runtime_error(
        "rt::future: operation was cancelled before completing (session "
        "unwound?)");
  }
  if (!state_->completed) state_->session->await(*state_);
}

template <typename T>
T future<T>::get() {
  wait();
  if constexpr (!std::is_void_v<T>) {
    return std::move(*state_->value);
  }
}

}  // namespace rcua::rt
