#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/spinlock.hpp"

namespace rcua::reclaim {

/// Structured description of one detected stall: who is stuck, where,
/// for how long, at what epoch. Emitted to the owning StallMonitor's sink
/// (stderr by default) and kept as `last()` for programmatic inspection.
struct StallDiagnostic {
  /// record_stall writes the value into the trace, so values never
  /// change (1 is retired).
  enum class Kind : int {
    /// An EBR old-parity column refused to drain before the deadline.
    kEbrReader = 0,
    /// The overflow retire list exceeded its byte budget.
    kOverflowBudget = 2,
    /// An era reservation (IBR / hazard eras) trails the era clock far
    /// enough to hold retired objects pending. Unlike the kinds above
    /// this never gates progress or defers to an overflow list — the
    /// pending set is bounded by construction — so it is purely
    /// diagnostic: the stalled reader exists and should be found.
    kEraReservation = 3,
  };

  Kind kind = Kind::kEbrReader;
  /// The reclamation domain instance (Ebr / era reclaimer) that stalled.
  const void* domain = nullptr;
  /// Locale the stall was observed on; UINT32_MAX when not locale-bound.
  std::uint32_t locale = UINT32_MAX;
  /// EBR: the pre-bump epoch being drained; eras: the era clock.
  std::uint64_t epoch = 0;
  /// EBR: first reader slot with a non-zero old-parity count — in the
  /// owned layout the stuck thread's reader index; eras: the reader
  /// index of the laggard reservation (SIZE_MAX = n/a).
  std::size_t slot = SIZE_MAX;
  /// EBR owned layout and eras: OS thread id (Linux tid) of the thread
  /// that took `slot`, recorded when the index was assigned (0 = unknown).
  std::uint64_t thread_id = 0;
  /// EBR: old-parity column sum at deadline expiry.
  std::uint64_t stuck_readers = 0;
  /// How long the waiter spun before giving up.
  std::uint64_t waited_ns = 0;
  /// Overflow-budget escalations: bytes pending vs the configured budget.
  std::size_t overflow_bytes = 0;
  std::size_t budget_bytes = 0;
  /// Era reservations: how many eras the laggard reservation trails the
  /// clock (kEraReservation; `slot` and `thread_id` name the reader,
  /// `overflow_bytes` the blocked-pending bytes).
  std::uint64_t era_lag = 0;

  /// One-line human-readable rendering ("which slot and thread is
  /// stuck, for how long, at what epoch").
  [[nodiscard]] std::string describe() const;
};

/// Pluggable destination for stall diagnostics. Implementations must be
/// thread-safe: reclaimers on any thread may report stalls concurrently.
class StallSink {
 public:
  virtual ~StallSink() = default;
  virtual void on_stall(const StallDiagnostic& diag) = 0;
};

/// Default sink: renders `describe()` as one line to stderr.
class StderrStallSink final : public StallSink {
 public:
  void on_stall(const StallDiagnostic& diag) override;
};

/// Test sink: captures every structured diagnostic so assertions can
/// inspect fields instead of string-matching the stderr rendering.
class CaptureStallSink final : public StallSink {
 public:
  void on_stall(const StallDiagnostic& diag) override;

  /// Snapshot of everything captured so far, in delivery order.
  [[nodiscard]] std::vector<StallDiagnostic> records() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable plat::Spinlock lock_;
  std::vector<StallDiagnostic> records_;
};

/// Watchdog over grace-period stalls and overflow memory, and the two
/// settings that bound them. `deadline_ns` bounds a stall-tolerant
/// grace-period wait — it turns "block forever on a stalled reader"
/// (classic EBR fragility, the DEBRA+ critique) into "give up after a
/// bounded wait and let the caller defer"; 0 keeps the paper's blocking
/// behaviour. Reclaimers report stalls through `record_stall`;
/// structures that defer retired memory past a stalled grace period
/// account the bytes here, and the monitor enforces a hard bound: once
/// the pending bytes would exceed `budget_bytes` (0 = unlimited) the
/// caller records an escalation and refuses the overflow, falling back
/// to the blocking wait (memory stays bounded, latency degrades).
///
/// Thread-safe; one instance may be shared across locales and domains.
class StallMonitor {
 public:
  explicit StallMonitor(std::size_t budget_bytes = 0,
                        std::uint64_t deadline_ns = 0) noexcept
      : budget_bytes_(budget_bytes), deadline_ns_(deadline_ns) {}
  StallMonitor(const StallMonitor&) = delete;
  StallMonitor& operator=(const StallMonitor&) = delete;

  /// Process-wide monitor, with a 64 MiB overflow budget and no
  /// deadline (grace-period waits block).
  static StallMonitor& global();

  /// Wall-clock budget for a grace-period wait; 0 = block forever.
  [[nodiscard]] std::uint64_t deadline_ns() const noexcept {
    return deadline_ns_;
  }

  /// Replaces the diagnostic sink (default: a process-wide
  /// StderrStallSink). Pass nullptr to silence. The monitor does not own
  /// the sink; it must outlive every stall. Not synchronized against
  /// in-flight stalls; install before concurrent use.
  void set_sink(StallSink* sink) noexcept { sink_ = sink; }

  /// Reports one stall: counts it, remembers it, forwards to the sink.
  void record_stall(const StallDiagnostic& diag);

  // -- Overflow byte accounting -----------------------------------------

  /// True when admitting `extra` more overflow bytes would exceed the
  /// budget (always false with an unlimited budget).
  [[nodiscard]] bool would_exceed(std::size_t extra) const noexcept {
    const std::size_t budget = budget_bytes_;
    if (budget == 0) return false;
    return overflow_bytes_.load(std::memory_order_relaxed) + extra > budget;
  }

  void note_overflow(std::size_t bytes, std::size_t objects = 1) noexcept;
  void note_flushed(std::size_t bytes, std::size_t objects) noexcept;

  [[nodiscard]] std::size_t budget_bytes() const noexcept {
    return budget_bytes_;
  }
  [[nodiscard]] std::size_t overflow_bytes() const noexcept {
    return overflow_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_overflow_bytes() const noexcept {
    return peak_overflow_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t escalations() const noexcept {
    return escalations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow_objects() const noexcept {
    return overflow_objects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t flushed_objects() const noexcept {
    return flushed_objects_.load(std::memory_order_relaxed);
  }

  /// Copy of the most recent diagnostic (all-zero before the first).
  [[nodiscard]] StallDiagnostic last() const;

  /// Records a budget escalation (kind kOverflowBudget) and bumps the
  /// escalation counter.
  void escalate(StallDiagnostic diag);

 private:
  std::size_t budget_bytes_;
  std::uint64_t deadline_ns_;
  StallSink* sink_ = default_sink();
  std::atomic<std::size_t> overflow_bytes_{0};
  std::atomic<std::size_t> peak_overflow_bytes_{0};
  std::atomic<std::uint64_t> overflow_objects_{0};
  std::atomic<std::uint64_t> flushed_objects_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> escalations_{0};
  mutable plat::Spinlock last_lock_;
  StallDiagnostic last_{};

  /// Immortal process-wide StderrStallSink shared by every monitor.
  static StallSink* default_sink();
};

}  // namespace rcua::reclaim
