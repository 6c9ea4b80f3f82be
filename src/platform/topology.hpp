#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "platform/rng.hpp"
#include "testing/sched_point.hpp"

namespace rcua::plat {

/// Number of hardware execution contexts available to this process
/// (respects the cpuset / affinity mask). Never returns 0.
std::uint32_t hardware_threads() noexcept;

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
/// The generation of the calling thread's reader index when it took it.
inline thread_local std::uint64_t tl_reader_generation = 0;
/// Slow path of reader_index(): takes the lowest free index.
std::size_t take_reader_index();
}  // namespace detail

/// The calling thread's reader index: a small dense id for per-thread
/// slots that only their owner writes (ReaderBank). A thread takes the
/// lowest free index on first use and returns it when it exits, so live
/// indices stay below the peak number of live threads.
inline std::size_t reader_index() {
  const std::uint32_t v = detail::tl_reader_index_plus1;
  return v != 0 ? v - 1 : detail::take_reader_index();
}

/// The calling thread's reader generation: the generation its reader
/// index had when the thread took it. The index pool bumps an index's
/// generation when a thread takes it and again when the thread returns
/// it, so it is odd, never 0, and matches reader_generation(index) only
/// while this thread owns the index.
inline std::uint64_t reader_generation() {
  (void)reader_index();
  return detail::tl_reader_generation;
}

/// The current generation of `index` (0 when it was never handed out).
/// A slot that records its owner's reader_generation() can tell from it,
/// without its owner's help, whether that owner still holds the index.
[[nodiscard]] std::uint64_t reader_generation(std::size_t index) noexcept;

/// One past the highest reader index handed out so far; it never
/// shrinks. Bumped seq_cst before the new index is returned, so a scan
/// that loads it after a seq_cst fence covers every index whose owner's
/// seq_cst store precedes that fence.
[[nodiscard]] std::size_t reader_index_high_water() noexcept;

/// OS thread id (Linux tid) of the thread that took `index` last; 0 when
/// the index was never handed out. For stall diagnostics.
[[nodiscard]] std::uint64_t reader_thread_id(std::size_t index) noexcept;

/// One `Slot` per reader index, written only by the thread that owns the
/// index: the per-thread state of every reclaimer that keeps any (EBR's
/// counts, era reservations, hazard-pointer records, QSBR's observed
/// epochs and defer lists).
/// Slots are allocated in chunks of kChunkSlots the first time an index
/// in the chunk asks for its slot, so a bank costs memory only for the
/// indices that have used it. A slot outlives its owner: the next thread
/// to take the index inherits it as the last owner left it.
template <typename Slot>
class ReaderBank {
 public:
  ReaderBank() = default;
  ReaderBank(const ReaderBank&) = delete;
  ReaderBank& operator=(const ReaderBank&) = delete;
  ~ReaderBank() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
  }

  /// The calling thread's slot.
  Slot& mine() {
    // The shared_reader_slot mutation hands every reader slot 0, which
    // breaks the one-writer rule every bank user relies on.
    const std::size_t i =
        RCUA_SCHED_MUT(shared_reader_slot) ? std::size_t{0} : reader_index();
    // seq_cst (a plain load on x86 and an ldar on ARM, like acquire):
    // it orders another thread's install of the chunk before this
    // thread's next seq_cst store in the single total order, which a
    // scan after a seq_cst fence relies on (DESIGN.md §5).
    Slot* chunk = chunks_[i / kChunkSlots].load(std::memory_order_seq_cst);
    if (chunk == nullptr) [[unlikely]] chunk = install_chunk(i / kChunkSlots);
    return chunk[i % kChunkSlots];
  }

  /// Calls fn(index, slot) for every allocated slot of an index handed
  /// out so far. Issued after a seq_cst fence (every bank user's scan
  /// has one), the high-water and chunk loads see every index and chunk
  /// whose owner's seq_cst store precedes that fence (DESIGN.md §5).
  template <typename F>
  void for_each(F&& fn) const {
    const std::size_t high = reader_index_high_water();
    for (std::size_t c = 0; c * kChunkSlots < high; ++c) {
      const Slot* chunk = chunks_[c].load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      const std::size_t n = std::min(kChunkSlots, high - c * kChunkSlots);
      for (std::size_t j = 0; j < n; ++j) fn(c * kChunkSlots + j, chunk[j]);
    }
  }
  template <typename F>
  void for_each(F&& fn) {
    std::as_const(*this).for_each([&](std::size_t i, const Slot& s) {
      fn(i, const_cast<Slot&>(s));
    });
  }

  /// The slot of `index`, or nullptr when its chunk was never allocated.
  [[nodiscard]] const Slot* find(std::size_t index) const noexcept {
    if (index >= kMaxReaders) return nullptr;
    const Slot* chunk =
        chunks_[index / kChunkSlots].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : &chunk[index % kChunkSlots];
  }

 private:
  static constexpr std::size_t kChunkSlots = 64;

  Slot* install_chunk(std::size_t c) {
    Slot* fresh = new Slot[kChunkSlots];
    Slot* expected = nullptr;
    // seq_cst: the install precedes every store into the chunk in the
    // single total order, so a scan after a seq_cst fence cannot miss it.
    if (chunks_[c].compare_exchange_strong(expected, fresh,
                                           std::memory_order_seq_cst)) {
      return fresh;
    }
    delete[] fresh;
    return expected;
  }

  std::atomic<Slot*> chunks_[kMaxReaders / kChunkSlots] = {};
};

}  // namespace rcua::plat
