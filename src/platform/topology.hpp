#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "platform/rng.hpp"

namespace rcua::plat {

/// Number of hardware execution contexts available to this process
/// (respects the cpuset / affinity mask). Never returns 0.
std::uint32_t hardware_threads() noexcept;

/// True when the process is oversubscribed for `desired` runnable threads,
/// i.e. desired exceeds the hardware thread count. Spin loops consult this
/// to decide how aggressively to yield.
bool oversubscribed(std::uint32_t desired) noexcept;

/// TLS-free stripe selector for per-core counter banks: hashes the calling
/// thread's identity (one TCB register read plus a mix, no thread_local
/// slot and no syscall) into [0, num_stripes). A thread therefore always
/// lands on the same stripe, which is what keeps the stripe's cache line
/// resident in that core's cache. `num_stripes` must be a power of two.
inline std::size_t stripe_index(std::size_t num_stripes) noexcept {
  // std::this_thread::get_id() is pthread_self() underneath — a register
  // read, not TLS machinery — and is stable for the thread's lifetime.
  // Its raw value is pointer-like (aligned), so mix before masking.
  const std::size_t raw =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(raw))) &
         (num_stripes - 1);
}

}  // namespace rcua::plat
