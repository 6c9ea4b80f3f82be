#pragma once

#include <atomic>
#include <cstdint>

#include "platform/align.hpp"
#include "platform/spinlock.hpp"
#include "platform/topology.hpp"
#include "reclaim/retire_list.hpp"

namespace rcua::reclaim {

/// Quiescent State-Based Reclamation implemented in the runtime
/// (Algorithm 2): a general-purpose memory-reclamation device decoupled
/// from RCU.
///
/// A global, monotonically increasing `StateEpoch` names the state of the
/// entire system. Whenever memory is to be reclaimed, `defer()` bumps the
/// StateEpoch (the old state is being discarded), the calling thread
/// observes the new epoch — promising it is quiescent of all earlier
/// states — and the memory is pushed LIFO on the thread's own DeferList
/// together with that *safe epoch*. At a `checkpoint()` the thread
/// observes the current StateEpoch, computes the minimum observed epoch
/// over every joined, non-parked thread, and reclaims its own list's
/// suffix with safe epoch <= that minimum (Lemmas 4 and 5).
///
/// The paper's TLSList is the shared thread-owned bank (plat::ReaderBank):
/// one Slot per reader index, found only through plat::reader_index(). A
/// thread joins the domain on first participation by recording its reader
/// generation in its slot; the slot gates the minimum only while that
/// generation is its index's current one, so a thread that exits stops
/// gating when the index pool takes its index back, and the next owner of
/// the index gates nothing until it joins. The exited thread's deferrals
/// pass to that next owner, whose checkpoints reclaim them.
///
/// Contract inherited from the paper (§III-B):
///  * It is NOT safe to dereference QSBR-protected memory acquired before
///    the caller's latest checkpoint or defer.
///  * Tasks must not yield to another task on the same thread while
///    holding a protected reference (threads, not tasks, are the
///    participants).
///  * StateEpoch overflow would be undefined behaviour; with a 64-bit
///    epoch this is unreachable, and debug builds assert on it.
class Qsbr {
 public:
  /// Destroying the domain reclaims every thread's pending deferrals —
  /// only destroy once all participants are quiescent.
  Qsbr() = default;
  Qsbr(const Qsbr&) = delete;
  Qsbr& operator=(const Qsbr&) = delete;

  /// The process-wide domain, as in the paper's runtime integration; the
  /// task pool's idle workers park in it.
  static Qsbr& global();

  struct Stats {
    std::uint64_t defers = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t reclaimed = 0;
  };

  /// Test-only fault injection, mirroring BasicEbr::test_read_hook: when
  /// non-null, invoked at the checkpoint/park protocol windows so tests
  /// can drive stalls deterministically. Production leaves it null (one
  /// predicted-not-taken branch per site).
  enum : int {
    /// After the checkpoint's StateEpoch read, before the observation
    /// store (Algorithm 2 between lines 4 and 5) — the window where the
    /// epoch can move under the observer.
    kHookCheckpointEpochRead = 0,
    /// After the observation store, before the min scan (before line 6).
    kHookCheckpointObserved = 1,
    /// On entry to park(), before the final housekeeping runs.
    kHookPark = 2,
    /// On entry to unpark(), before the thread becomes visible again.
    kHookUnpark = 3,
    /// In park(), after its eligible deferrals were popped and before
    /// they run: the window flush_unsafe() has to wait out.
    kHookParkPopped = 4,
  };
  using TestHook = void (*)(Qsbr&, int phase);
  TestHook test_hook = nullptr;

  /// QSBR_Defer: schedules `delete obj` once every thread has observed a
  /// state no older than the one this call creates.
  template <typename T>
  void defer_delete(T* obj) {
    defer(make_defer_node(obj, /*safe_epoch=*/0));
  }

  /// QSBR_Defer with an arbitrary (function, argument) reclamation.
  void defer_fn(void (*fn)(void*), void* arg) {
    defer(make_defer_node_fn(fn, arg, /*safe_epoch=*/0));
  }

  /// Core defer: takes ownership of `node`, stamps its safe epoch
  /// (Algorithm 2 lines 1-3).
  void defer(DeferNode* node);

  /// QSBR_Checkpoint (Algorithm 2 lines 4-13): promises quiescence of all
  /// prior states and reclaims this thread's eligible deferrals. Returns
  /// the number of objects reclaimed. How far the slowest participant
  /// trails the observed state goes to obs::health::epoch_lag(), where a
  /// laggard pinning reclamation shows up.
  std::size_t checkpoint();

  /// Makes the calling thread a participant (visible to the safe-epoch
  /// minimum) if it isn't already. The paper's model has *every* thread
  /// participate from the start ("All threads act as participants"); a
  /// thread must be a participant BEFORE dereferencing protected data,
  /// otherwise reclaimers cannot see it. RCUArray's QSBR read path calls
  /// this; once the thread has joined it is two TLS loads, a chunk load,
  /// a relaxed load and a compare (DEBRA's thread-local per-op check).
  void ensure_participant() { participate(); }

  /// Parking support (the paper's idle threads): the calling thread is
  /// idle in this domain; observe the newest state, reclaim what its own
  /// list allows, and stop gating the minimum until unpark(). A thread
  /// that never joined the domain has nothing to park.
  void park();
  /// Re-admits a parked thread, observing the current epoch before it
  /// becomes visible. A participation while parked re-admits it too.
  void unpark();

  /// Number of deferrals pending on the calling thread's slot, including
  /// any an exited previous owner of its reader index left there.
  [[nodiscard]] std::size_t pending_on_this_thread() {
    return bank_.mine().defer_list.size();
  }

  /// Deferrals pending on every slot of this domain — the measured drain
  /// target for shutdown paths (checkpoints reclaim each slot's eligible
  /// share; flush_unsafe() takes what no checkpoint will reach).
  [[nodiscard]] std::size_t pending_total() const {
    std::size_t n = 0;
    bank_.for_each(
        [&](std::size_t, const Slot& s) { n += s.defer_list.size(); });
    return n;
  }

  /// Reclaims every pending deferral of every thread, including chains a
  /// concurrent park() or checkpoint() has popped but not yet run: it
  /// returns only after their callbacks did. ONLY safe when no thread
  /// holds protected references (shutdown, test teardown), and never from
  /// a deferred callback.
  void flush_unsafe();

  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return state_epoch_.value.load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const noexcept {
    return Stats{defers_.value.load(std::memory_order_relaxed),
                 checkpoints_.value.load(std::memory_order_relaxed),
                 reclaimed_.value.load(std::memory_order_relaxed)};
  }

 private:
  /// Set in Slot::state while the owner is parked.
  static constexpr std::uint64_t kParked = std::uint64_t{1} << 63;

  /// One thread's state in this domain: the paper's thread-specific
  /// metadata.
  struct alignas(plat::kCacheLine) Slot {
    /// The newest StateEpoch the owner promised quiescence up to.
    std::atomic<std::uint64_t> observed_epoch{0};
    /// The owner's reader generation while it participates, with kParked
    /// set while it is parked. The slot gates the minimum only when this
    /// equals its index's current generation.
    std::atomic<std::uint64_t> state{0};
    /// Owner-pushed LIFO of deferred reclamations, descending safe epoch
    /// (Lemma 4). Only the owner pushes and pops; flush_unsafe() drains
    /// every slot, so list access takes the (normally uncontended)
    /// spinlock.
    DeferList defer_list;
    plat::Spinlock list_lock;
    /// Chains popped off defer_list whose callbacks are still running.
    std::atomic<std::uint32_t> in_flight{0};
  };

  /// This thread's slot, joined on first use. The generation is read
  /// first so that mine() reuses its reader-index load.
  Slot& participate() {
    const std::uint64_t gen = plat::reader_generation();
    Slot& slot = bank_.mine();
    if (slot.state.load(std::memory_order_relaxed) != gen) [[unlikely]] {
      join(slot, gen);
    }
    return slot;
  }
  /// Publishes a current observation and `gen` (the caller's reader
  /// generation) into `slot`.
  void join(Slot& slot, std::uint64_t gen);
  /// The min observed epoch over every joined, non-parked slot, capped at
  /// `ceiling`; `live` counts the slots it took.
  std::uint64_t min_observed_epoch(std::uint64_t ceiling,
                                   std::uint64_t& live) const;
  /// Pops the caller's deferrals with safe epoch <= `min`. A non-empty
  /// chain counts as in flight until reclaim_popped() has run it.
  static DeferNode* pop_up_to(Slot& slot, std::uint64_t min);
  /// Runs a chain pop_up_to() returned; returns the objects reclaimed.
  static std::size_t reclaim_popped(Slot& slot, DeferNode* chain);

  plat::ReaderBank<Slot> bank_;
  plat::CacheAligned<std::atomic<std::uint64_t>> state_epoch_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> defers_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> checkpoints_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> reclaimed_{0ULL};
};

}  // namespace rcua::reclaim
