#pragma once

// Per-task trace spans (DESIGN.md §12).
//
// A trace is the "why was it slow" companion to the metrics registry: a
// stream of begin/end spans and instant events — read-section
// enter/exit, epoch bump, drain wait, overflow defer, comm
// issue/complete, cache hit/fill/evict, resize publish/reclaim —
// recorded into per-thread lock-free ring buffers and exported as
// Chrome `trace_event` JSON (set RCUA_TRACE=out.json, open the file in
// Perfetto / chrome://tracing).
//
// Cost discipline: tracing is OFF by default and every record site is
// one relaxed load + predicted not-taken branch (`trace_enabled()`)
// when off. When on, a record is a handful of plain stores into a
// thread-owned slot — no locks, no allocation after the first event per
// thread, and never a virtual-time charge, so enabling a trace does not
// perturb the simulated timeline it measures.
//
// Determinism rule: timestamps are VIRTUAL nanoseconds whenever a
// sim::TaskClock is attached (bench measured regions, sched-harness
// scenarios) and only fall back to wall time otherwise; the recording
// task id is the deterministic scheduler task id when the sched harness
// owns the thread. Two runs under the same RCUA_SCHED_SEED therefore
// produce identical event sequences (tests/test_sched_trace.cpp).
//
// Rings are single-writer (the owning thread) and hold 8192 events
// each; on overflow the OLDEST events are discarded, keeping the end of
// the story — the part that explains the slow tail. Snapshot/export read
// the rings without synchronising with writers, so call them at
// quiescence (after joining workers), which every exporter in this repo
// does.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rcua::obs {

/// One recorded event. `name` / `cat` must be string literals (stored
/// by pointer, never copied).
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;  ///< virtual ns when a clock is attached, else wall
  std::uint64_t arg = 0;    ///< one numeric payload (exported as args.v)
  std::uint32_t tid = 0;    ///< sched task id under the harness, else thread id
  char phase = 'i';         ///< 'B' begin span, 'E' end span, 'i' instant
};

namespace detail {
/// Global on/off switch, read relaxed on every record site.
inline std::atomic<bool> g_trace_enabled{false};
/// Out-of-line record path; call only when tracing is enabled.
void trace_record_slow(const char* name, const char* cat, char phase,
                       std::uint64_t arg) noexcept;
}  // namespace detail

[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Records one event if tracing is on; the entire cost when off is the
/// enabled check.
inline void trace_event(const char* name, const char* cat, char phase,
                        std::uint64_t arg = 0) noexcept {
  if (trace_enabled()) detail::trace_record_slow(name, cat, phase, arg);
}

/// Instant event ("i", rendered as a tick mark in Perfetto).
inline void trace_instant(const char* name, const char* cat,
                          std::uint64_t arg = 0) noexcept {
  trace_event(name, cat, 'i', arg);
}

/// RAII begin/end span. Arms only if tracing was enabled at entry so a
/// mid-span toggle cannot emit an unmatched 'E'.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat,
            std::uint64_t arg = 0) noexcept
      : name_(name), cat_(cat), armed_(trace_enabled()) {
    if (armed_) detail::trace_record_slow(name_, cat_, 'B', arg);
  }
  ~TraceSpan() {
    if (armed_) detail::trace_record_slow(name_, cat_, 'E', 0);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  bool armed_;
};

/// Turns recording on/off (RCUA_TRACE=path does this at startup and
/// exports at exit; tests toggle it directly).
void set_trace_enabled(bool on) noexcept;

/// Clears every ring (events and drop counts). Call at quiescence.
void trace_reset();

/// Events currently held, ordered by (tid, record order). Oldest
/// events of an overflowed ring are gone — see trace_dropped().
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Total events discarded to ring overflow since the last reset.
[[nodiscard]] std::uint64_t trace_dropped();

/// Per-thread ring capacity in events (8192).
[[nodiscard]] std::size_t trace_capacity() noexcept;

/// Writes the Chrome trace_event JSON ({"traceEvents":[...]}) for the
/// current snapshot. The path variant returns false if the file cannot
/// be opened.
void trace_write_json(std::ostream& os);
bool trace_write_json(const std::string& path);

}  // namespace rcua::obs
