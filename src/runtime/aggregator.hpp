#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/cluster.hpp"
#include "runtime/comm.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::rt {

/// Destination-buffered operation aggregation (the copy-aggregation idea
/// of Dewan & Jenkins, arXiv:2112.00068, applied to this runtime's comm
/// model): instead of paying one recorded GET/PUT per remote element, a
/// task coalesces the operations it wants to run on each destination
/// locale into a per-destination buffer and ships each buffer as ONE
/// remote execution (`record_execute`) plus a per-element wire cost
/// (`bulk_copy_ns_per_elem`), amortizing the launch latency across the
/// whole buffer.
///
/// Contract:
///  * One Aggregator per task — it is NOT thread-safe. Cheap to
///    construct; intended to live for the duration of one bulk
///    operation.
///  * Operations for the *calling* locale execute immediately at push()
///    (local work is not communication and gains nothing from
///    buffering).
///  * Remote operations are buffered and run, in push order per
///    destination, at flush()/flush_all() — or automatically when a
///    destination's buffered weight reaches `Options::capacity`.
///  * The destructor DISCARDS unflushed operations rather than running
///    them. This is deliberate: callers buffer operations that
///    dereference memory pinned by an enclosing read-side critical
///    section (see rcua::bulk_visit), and an exception unwinding out
///    of that section must not execute them after the pin is gone.
///    Callers that want the operations to happen must flush explicitly
///    before the section closes.
struct AggregatorOptions {
  /// Element-ops buffered per destination before an automatic flush.
  /// 1 degenerates to flush-per-push (still one execute per *span*,
  /// never per element). 0 is treated as 1.
  /// (Namespace-scope rather than nested so it can carry a default
  /// member initializer AND serve as a default constructor argument —
  /// a nested class's NSDMIs are not usable in the enclosing class's
  /// default arguments.)
  std::size_t capacity = 1024;
  /// Pipeline flushes through rt::AsyncComm: each flush issues an async
  /// remote execute (paying only the issue carve-out) and its launch
  /// latency + wire time overlap with subsequent flushes; completions
  /// land at drain()/destruction-cancel. false = the PR 4 synchronous
  /// model (one blocking execute + wire charge per flush). Counters are
  /// identical in both modes.
  bool async = true;
  /// Per-destination in-flight window for async mode; 0 defers to the
  /// RCUA_COMM_WINDOW environment variable (see AsyncCommOptions).
  std::size_t window = 0;
};

class Aggregator {
 public:
  using Options = AggregatorOptions;

  struct Stats {
    std::uint64_t ops = 0;          ///< push() calls
    std::uint64_t local_ops = 0;    ///< ran immediately (dst == here)
    std::uint64_t flushes = 0;      ///< non-empty buffer sends
    std::uint64_t auto_flushes = 0; ///< flushes triggered by capacity
  };

  explicit Aggregator(Cluster& cluster, Options options = {})
      : cluster_(cluster),
        capacity_(options.capacity == 0 ? 1 : options.capacity),
        here_(cluster.here()),
        buffers_(cluster.num_locales()) {
    if (options.async) {
      async_.emplace(cluster.comm(), here_,
                     AsyncCommOptions{.window = options.window});
    }
  }

  /// Unflushed buffered ops are dropped (see class comment), and — via
  /// ~AsyncComm — every in-flight async flush is CANCELLED, never
  /// delivered: an exception unwinding out of the pinned section must
  /// not run completions against unpinned blocks or a destroyed caller
  /// buffer. Callers that want the ops must flush_all() + drain() inside
  /// the section.
  ~Aggregator() = default;
  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Queues `op` (covering `weight` element accesses) for destination
  /// locale `dst`. Local destinations run inline; remote destinations
  /// buffer, auto-flushing once the destination's pending weight reaches
  /// the configured capacity.
  void push(std::uint32_t dst, std::size_t weight,
            std::function<void()> op) {
    ++stats_.ops;
    if (dst == here_) {
      ++stats_.local_ops;
      op();
      return;
    }
    Buffer& buf = buffers_[dst];
    buf.weight += weight;
    buf.ops.push_back(std::move(op));
    if (buf.weight >= capacity_) {
      ++stats_.auto_flushes;
      flush(dst);
    }
  }

  /// Ships destination `dst`'s buffer: one remote execution charge plus
  /// the per-element wire cost, then the buffered ops in push order.
  void flush(std::uint32_t dst) {
    Buffer& buf = buffers_[dst];
    if (buf.ops.empty()) return;
    RCUA_SCHED_POINT("agg.flush");
    ++stats_.flushes;
    // Swap out first so an op that pushes to the same destination (none
    // do today) cannot interleave with the buffer being cleared.
    std::vector<std::function<void()>> ops = std::move(buf.ops);
    buf.ops.clear();
    const std::size_t weight = buf.weight;
    buf.weight = 0;
    if (async_) {
      // Pipelined: the execute's launch latency and per-element wire
      // time live in the channel model (overlapping with later flushes)
      // instead of being charged up front; the buffered ops run at the
      // completion, still in push order (per-destination delivery is
      // FIFO in issue order).
      async_->execute(dst, weight, [ops = std::move(ops)]() mutable {
        for (auto& op : ops) op();
      });
      return;
    }
    cluster_.comm().record_execute(here_, dst);
    sim::charge(sim::CostModel::get().bulk_copy_ns_per_elem *
                static_cast<double>(weight));
    for (auto& op : ops) op();
  }

  /// Flushes every destination with pending operations.
  void flush_all() {
    for (std::uint32_t dst = 0;
         dst < static_cast<std::uint32_t>(buffers_.size()); ++dst) {
      flush(dst);
    }
  }

  /// Retires every in-flight async flush completion (no-op in sync mode
  /// or when nothing is pending). MUST be called inside the read-side
  /// section that pins the memory the buffered ops touch — the §10
  /// completion-drain rule; rcua::bulk_visit (core/bulk.hpp) is the
  /// reference caller.
  void drain() {
    if (async_) async_->drain();
  }

  [[nodiscard]] std::size_t pending_weight(std::uint32_t dst) const {
    return buffers_[dst].weight;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// The async session (nullptr in sync mode) — window/in-flight/stat
  /// observability for tests.
  [[nodiscard]] const AsyncComm* async_comm() const noexcept {
    return async_ ? &*async_ : nullptr;
  }

 private:
  struct Buffer {
    std::vector<std::function<void()>> ops;
    std::size_t weight = 0;
  };

  Cluster& cluster_;
  std::size_t capacity_;
  std::uint32_t here_;
  std::vector<Buffer> buffers_;
  std::optional<AsyncComm> async_;
  Stats stats_;
};

}  // namespace rcua::rt
