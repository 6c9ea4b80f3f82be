#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "platform/timing.hpp"
#include "testing/sched_point.hpp"

namespace rcua::plat {

/// Hint the CPU that we are in a spin-wait loop.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // Fallback: compiler barrier only.
  asm volatile("" ::: "memory");
#endif
}

/// Truncated exponential backoff for contended CAS loops.
///
/// Starts with `cpu_relax` bursts and escalates to `std::this_thread::yield`
/// once the burst budget exceeds `yield_threshold`. Yielding matters a lot
/// on oversubscribed hosts (more runnable threads than cores): a pure pause
/// loop would burn an entire scheduler quantum waiting for a writer that is
/// not currently running.
class Backoff {
 public:
  explicit Backoff(std::uint32_t yield_threshold = 64) noexcept
      : limit_(1), yield_threshold_(yield_threshold) {}

  /// One backoff step. Doubles the burst length up to the yield threshold,
  /// after which every step is a thread yield.
  void pause() noexcept {
    if (limit_ >= yield_threshold_) {
      std::this_thread::yield();
      return;
    }
    for (std::uint32_t i = 0; i < limit_; ++i) cpu_relax();
    limit_ *= 2;
  }

  /// Resets the schedule after a successful acquisition.
  void reset() noexcept { limit_ = 1; }

  /// True once the backoff has escalated to yielding.
  [[nodiscard]] bool is_yielding() const noexcept {
    return limit_ >= yield_threshold_;
  }

 private:
  std::uint32_t limit_;
  std::uint32_t yield_threshold_;
};

/// The one wait for a condition another thread establishes: every grace
/// period and era fence in the library waits here.
/// Returns true once `pred()` holds. With a non-zero `deadline_ns` it
/// gives up after that much wall time and returns `pred()`; 0 waits
/// forever. `site` names the wait in sched traces.
///
/// The schedule is fixed: 64 spins, 64 yields, then a park of 50 µs that
/// doubles up to 1 ms. Under the deterministic scheduler (RCUA_SCHED_TEST)
/// a wall clock would break seed replay, so on a scheduled task a blocking
/// wait is a `sched_await` and a deadline is one scheduler poll.
template <typename Pred>
bool wait_until(const char* site, Pred&& pred, std::uint64_t deadline_ns = 0) {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  if (testing::sched_task_active()) {
    if (deadline_ns == 0) {
      testing::sched_await(site, [&] { return pred(); });
      return true;
    }
    if (pred()) return true;
    testing::sched_point(site);
    return pred();
  }
#endif
  (void)site;
  if (pred()) return true;
  constexpr std::uint32_t kSpins = 64;
  constexpr std::uint32_t kYields = 64;
  constexpr std::uint64_t kParkMaxNs = 1000 * 1000;
  const std::uint64_t start = deadline_ns != 0 ? now_ns() : 0;
  std::uint32_t step = 0;
  std::uint64_t park = 50 * 1000;
  for (;;) {
    if (step < kSpins) {
      cpu_relax();
      ++step;
    } else if (step < kSpins + kYields) {
      std::this_thread::yield();
      ++step;
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(park));
      park = std::min(park * 2, kParkMaxNs);
    }
    if (pred()) return true;
    if (deadline_ns != 0 && now_ns() - start >= deadline_ns) return pred();
  }
}

}  // namespace rcua::plat
