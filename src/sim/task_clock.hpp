#pragma once

#include <cstdint>

namespace rcua::sim {

/// Per-task virtual clock.
///
/// Benchmark tasks each own one of these and attach it to their thread for
/// the duration of the measured region (ClockScope). All charge sites in
/// the library are no-ops when no clock is attached — unit tests and
/// example programs run at native speed — and accumulate virtual
/// nanoseconds when one is. A configuration's throughput is
///   total_ops / max over tasks of vtime
/// which is exactly the makespan of the simulated cluster execution.
struct TaskClock {
  /// Accumulated virtual nanoseconds.
  std::uint64_t vtime_ns = 0;
  /// Identity of the last data block this task touched; drives the
  /// cached/streamed vs missed/first-touch cost split.
  std::uint64_t last_block_id = ~0ULL;
  /// Number of charge events (observability / tests).
  std::uint64_t charge_events = 0;

  void reset() noexcept {
    vtime_ns = 0;
    last_block_id = ~0ULL;
    charge_events = 0;
  }
};

namespace detail {
/// The calling thread's attached clock (nullptr = none). Header-inline so
/// every charge site's "no clock" test is one TLS load and a branch.
inline thread_local TaskClock* tl_clock = nullptr;
/// touch_block's costed path; only called with a clock attached.
void touch_block_slow(TaskClock& c, std::uint64_t block_id, bool remote,
                      bool is_write, double extra_on_miss_ns) noexcept;
}  // namespace detail

/// True when a virtual clock is attached to the calling thread.
inline bool enabled() noexcept { return detail::tl_clock != nullptr; }

/// The attached clock, or nullptr.
inline TaskClock* current() noexcept { return detail::tl_clock; }

/// Adds `ns` virtual nanoseconds to the attached clock; no-op when none.
inline void charge(double ns) noexcept {
  if (TaskClock* c = detail::tl_clock) {
    c->vtime_ns += static_cast<std::uint64_t>(ns);
    ++c->charge_events;
  }
}

/// Current virtual time of the attached clock (0 when none).
inline std::uint64_t now_v() noexcept {
  return detail::tl_clock != nullptr ? detail::tl_clock->vtime_ns : 0;
}

/// Advances the attached clock to at least `t` (used by resources when a
/// queued acquisition completes later than the task's own time).
inline void advance_to(std::uint64_t t) noexcept {
  if (TaskClock* c = detail::tl_clock) {
    if (t > c->vtime_ns) c->vtime_ns = t;
  }
}

/// Models one element access to a data block.
///
/// `block_id` must be globally unique per block (pointer value works);
/// `remote` is whether the block lives on another locale. The cost is
/// selected by whether the task's previous access hit the same block:
///   same block:   local_cached_ns        / remote_stream_ns
///   other block:  dram_miss_ns           / remote_get_ns (or PUT)
/// so sequential scans become cheap and random access becomes expensive
/// without the data structure ever being told the access pattern.
/// `extra_on_miss_ns` is added only on a block switch (e.g. RCUArray's
/// snapshot-spine chain misses, which a hot loop over one block amortizes
/// away). Without a clock this is one TLS load: the cost model is read
/// only on the clocked path.
inline void touch_block(std::uint64_t block_id, bool remote, bool is_write,
                        double extra_on_miss_ns = 0.0) noexcept {
  if (TaskClock* c = detail::tl_clock) {
    detail::touch_block_slow(*c, block_id, remote, is_write, extra_on_miss_ns);
  }
}

/// RAII attachment of a clock to the calling thread. Nests (restores the
/// previous clock on destruction).
class ClockScope {
 public:
  explicit ClockScope(TaskClock& clock) noexcept : prev_(detail::tl_clock) {
    detail::tl_clock = &clock;
  }
  ~ClockScope() { detail::tl_clock = prev_; }
  ClockScope(const ClockScope&) = delete;
  ClockScope& operator=(const ClockScope&) = delete;

 private:
  TaskClock* prev_;
};

}  // namespace rcua::sim
