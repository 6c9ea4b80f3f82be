#pragma once

#include <atomic>

#include "platform/backoff.hpp"

namespace rcua::plat {

/// Test-and-test-and-set spinlock with exponential backoff.
/// Satisfies Lockable, so std::lock_guard / std::scoped_lock apply (CP.20).
class Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() noexcept {
    Backoff backoff;
    for (;;) {
      // Test first: spin on a cached read, not on the RMW.
      while (locked_.load(std::memory_order_relaxed)) backoff.pause();
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      backoff.pause();
    }
  }

  bool try_lock() noexcept {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { locked_.store(false, std::memory_order_release); }

  [[nodiscard]] bool is_locked() const noexcept {
    return locked_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace rcua::plat
