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

/// Most reader indices live at once (reader_index aborts beyond it).
inline constexpr std::size_t kMaxReaders = 4096;

namespace detail {
/// The calling thread's reader index plus one; 0 until it takes one.
/// Trivially destructible, so reading it is a plain TLS load.
inline thread_local std::uint32_t tl_reader_index_plus1 = 0;
/// Slow path of reader_index(): takes the lowest free index.
std::size_t take_reader_index();
}  // namespace detail

/// The calling thread's reader index: a small dense id for per-thread
/// slots that only their owner writes (reclaim::OwnedReaders). A thread
/// takes the lowest free index on first use and returns it when it
/// exits, so live indices stay below the peak number of live threads.
inline std::size_t reader_index() {
  const std::uint32_t v = detail::tl_reader_index_plus1;
  return v != 0 ? v - 1 : detail::take_reader_index();
}

/// One past the highest reader index handed out so far; it never
/// shrinks. Bumped seq_cst before the new index is returned, so a scan
/// that loads it after a seq_cst fence covers every index whose owner's
/// seq_cst store precedes that fence.
[[nodiscard]] std::size_t reader_index_high_water() noexcept;

/// OS thread id (Linux tid) of the thread that took `index` last; 0 when
/// the index was never handed out. For stall diagnostics.
[[nodiscard]] std::uint64_t reader_thread_id(std::size_t index) noexcept;

}  // namespace rcua::plat
