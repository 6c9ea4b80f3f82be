#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "reclaim/retire_list.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

/// Outcome of a drain (BasicEbr::wait_for_readers). Only a deadline-
/// bounded drain can time out; then the stuck-slot fields identify the
/// offender for the stall diagnostic.
struct DrainResult {
  bool drained = true;
  std::uint64_t waited_ns = 0;
  /// First reader slot whose old-parity count was non-zero at expiry
  /// (SIZE_MAX when drained or when the column emptied between checks).
  /// In the owned layout the slot is its thread's reader index.
  std::size_t stuck_slot = SIZE_MAX;
  /// OS thread id that took `stuck_slot` (plat::reader_thread_id); 0 in
  /// the legacy layout, whose one slot every reader shares.
  std::uint64_t stuck_thread = 0;
  /// Old-parity column sum observed at expiry.
  std::uint64_t stuck_readers = 0;
};

/// One reader slot: a count of open sections per epoch parity and its
/// read/retry counters, on its own cache line.
struct alignas(plat::kCacheLine) ReaderSlot {
  std::atomic<std::uint64_t> count[2] = {};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> retries{0};
};

/// Reader-bank layouts (the A/B knob for the ablation bench).
///
/// `OwnedReaders` is the default: the shared thread-owned bank
/// (plat::ReaderBank), one ReaderSlot per reader index, written only by
/// the thread that owns it.
class OwnedReaders : public plat::ReaderBank<ReaderSlot> {
 public:
  static constexpr bool kOwned = true;

  /// An owned slot has no contention to model: the announce is one
  /// uncontended RMW and the retract a store to a line already cached.
  static void charge_enter(std::size_t) noexcept {
    sim::charge(sim::CostModel::get().atomic_rmw_ns);
  }
  static void charge_leave(std::size_t) noexcept {
    sim::charge(sim::CostModel::get().local_cached_ns);
  }
};

/// `LegacyReaders` is the paper's original collective layout: one
/// `EpochReaders[2]` pair shared by every reader on the locale, all RMWs
/// seq_cst. It stays selectable so benches can A/B the two in one binary
/// and tests can pin the paper's exact cost structure.
class LegacyReaders {
 public:
  static constexpr bool kOwned = false;

  ReaderSlot& mine() noexcept { return shared_; }
  template <typename F>
  void for_each(F&& fn) const { fn(std::size_t{0}, shared_); }
  [[nodiscard]] const ReaderSlot* find(std::size_t index) const noexcept {
    return index == 0 ? &shared_ : nullptr;
  }

  /// Modeled as always-contended: the whole point of the collective
  /// counters is that every reader on the locale hammers them, so the
  /// line ping-pongs on every RMW. (A truly solo reader is overcharged
  /// in virtual time; the paper never evaluates that regime.)
  void charge_enter(std::size_t parity) noexcept {
    if (sim::enabled()) {
      lines_[parity].use(sim::CostModel::get().rmw_transfer_ns);
    }
  }
  void charge_leave(std::size_t parity) noexcept { charge_enter(parity); }

 private:
  ReaderSlot shared_;
  sim::VirtualResource lines_[2];
};

/// The paper's Epoch-Based Reclamation (Algorithm 1). The default
/// layout gives every thread its own reader slot, found through its
/// thread-local reader index; `LegacyReaders` keeps the paper's TLS-free
/// collective counters.
///
/// Readers announce themselves on one of two counters of their slot,
/// selected by the parity of a monotonically increasing `GlobalEpoch`.
/// The read side is
///
///     loop:
///       e   <- GlobalEpoch                   (line 10)
///       idx <- e % 2                         (line 11)
///       Slot[me][idx] += 1                   (line 12, the announcement)
///       if GlobalEpoch == e:                 (line 13, the verification)
///         r <- lambda(snapshot); Slot[me][idx] -= 1; return r
///       Slot[me][idx] -= 1; retry            (line 17)
///
/// and the write side, after publishing the new snapshot, bumps the epoch
/// and waits for the *old* parity's counters — summed across slots — to
/// drain before reclaiming (lines 5-8). Lemma 1 guarantees at most two
/// live snapshots (the writer holds a cluster lock), so two counters per
/// slot suffice, and Lemma 2 shows parity is preserved even across
/// integer overflow of the epoch — which is why the epoch type is a
/// template parameter: tests instantiate `BasicEbr<std::uint8_t>` and
/// drive it through wrap-around for real.
///
/// Owned slots (DEBRA's per-thread announcements): only the owner writes
/// its slot, so the increment is a relaxed load plus one seq_cst
/// `exchange` (an `xchg` on x86, which gives line 13 its StoreLoad edge),
/// and the undo and the retract are release stores — no locked RMW ends
/// a section. The writer bumps the epoch with a seq_cst RMW, issues a
/// seq_cst fence, then sums the old-parity counters with acquire loads.
/// A zero sum means every announced old-parity reader has retracted,
/// because each reader only ever counts on its own slot (DESIGN.md §5).
template <typename EpochT = std::uint64_t, typename Layout = OwnedReaders>
class BasicEbr {
  static_assert(std::is_unsigned_v<EpochT>,
                "epochs rely on unsigned wrap-around (Lemma 2)");

 public:
  BasicEbr() : BasicEbr(EpochT{0}) {}
  explicit BasicEbr(EpochT initial_epoch) {
    epoch_->store(initial_epoch, std::memory_order_relaxed);
  }
  BasicEbr(const BasicEbr&) = delete;
  BasicEbr& operator=(const BasicEbr&) = delete;

  /// Observability counters. `reads` and `read_retries` are kept in the
  /// reader slots, next to the count each section entry writes anyway;
  /// `epoch_advances` is write-side.
  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t epoch_advances = 0;
  };

  static constexpr bool kOwnedLayout = Layout::kOwned;

  /// Test-only fault injection: when non-null, invoked at the read-side
  /// linearization points — phase 0 after the epoch load (line 10) and
  /// phase 1 after the increment, before verification (line 13). Tests
  /// install a hook that advances the epoch at exactly these points to
  /// exercise the retry path (line 17) deterministically; production code
  /// leaves it null (one predicted-not-taken branch per site). `read()`
  /// is a `ReadGuard` scope, so the hook fires identically on either.
  using ReadHook = void (*)(BasicEbr&, int phase);
  ReadHook test_read_hook = nullptr;

  /// RCU_Read: runs `fn` inside a read-side critical section and returns
  /// its result. `fn` may return a reference; per the paper's relaxation
  /// (§III-C) the reference may outlive the critical section *provided*
  /// the protected structure recycles the referenced memory across
  /// snapshots (RCUArray's blocks do; the snapshot spine does not). The
  /// section is a ReadGuard, so it also ends if `fn` throws.
  template <typename F>
  decltype(auto) read(F&& fn) {
    ReadGuard guard(*this);
    return std::forward<F>(fn)();
  }

 private:
  /// A section's announced counter and its parity.
  struct Held {
    std::atomic<std::uint64_t>* count;
    std::size_t parity;
  };

 public:
  /// RAII read-side critical section: announces on construction and
  /// retracts on destruction, unwinding included. The one read path;
  /// read() is a guard scope around its λ.
  class ReadGuard {
   public:
    explicit ReadGuard(BasicEbr& ebr) : ebr_(ebr), held_(ebr.announce()) {
      obs::trace_event("rcu.read_section", "rcu", 'B');
    }
    ~ReadGuard() {
      RCUA_SCHED_POINT("ebr.guard.leave");
      obs::trace_event("rcu.read_section", "rcu", 'E');
      ebr_.leave(*held_.count, held_.parity);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    BasicEbr& ebr_;
    Held held_;
  };

  /// Write-side epoch bump (RCU_Write line 5). Returns the *previous*
  /// epoch, whose parity selects the counters to drain. The caller must
  /// hold the structure's write lock and must already have published the
  /// new snapshot. In the owned layout the bump is followed by a seq_cst
  /// fence: the drain's counter loads must not be satisfied before the
  /// new epoch is visible, or a reader that announced and verified
  /// against the old epoch could be missed (the StoreLoad edge the
  /// all-seq_cst legacy layout gets from its RMWs).
  EpochT advance_epoch() noexcept {
    epoch_advances_.value.fetch_add(1, std::memory_order_relaxed);
    sim::charge(sim::CostModel::get().atomic_rmw_ns);
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    if constexpr (Layout::kOwned) {
      if (RCUA_SCHED_MUT(ebr_skip_fence)) {
        // SC emulation of the reordering the fence forbids: without the
        // fence the drain's first scan may be satisfied by values read
        // before the epoch store became visible. Sample the soon-to-be-
        // old parity here, pre-bump; wait_for_readers consumes the
        // sample as its (hoisted) first check.
        const auto old_idx = static_cast<std::size_t>(
            epoch_->load(std::memory_order_seq_cst) % 2);
        hoisted_scan_zero_[old_idx] = column_sum(old_idx) == 0;
        RCUA_SCHED_POINT("ebr.advance.hoisted_scan");
      }
    }
#endif
    RCUA_SCHED_POINT("ebr.advance_epoch");
    const EpochT prev = epoch_->fetch_add(1, std::memory_order_seq_cst);
    if constexpr (Layout::kOwned) {
      if (!RCUA_SCHED_MUT(ebr_skip_fence)) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
    obs::trace_instant("rcu.epoch_bump", "rcu",
                       static_cast<std::uint64_t>(prev) + 1);
    return prev;
  }

  /// Waits until every reader recorded under `old_epoch`'s parity has
  /// evacuated (RCU_Write lines 6-7): the old-parity counters, summed
  /// over all slots, must reach zero. A reader only ever announces and
  /// retracts on its own slot, so a zero sum means every announced
  /// old-parity reader has retracted. After a drained result, memory
  /// only reachable from the pre-bump snapshot may be reclaimed.
  ///
  /// A non-zero `deadline_ns` bounds the wait (StallMonitor's deadline).
  /// On timeout the result carries the stall evidence — the column sum,
  /// the first stuck slot and the thread that owns it — so the caller
  /// can emit a StallDiagnostic and defer the retired memory onto an
  /// overflow RetireList (sweep_overflow) instead of blocking forever.
  DrainResult wait_for_readers(EpochT old_epoch,
                               std::uint64_t deadline_ns = 0) noexcept {
    const std::size_t idx = static_cast<std::size_t>(old_epoch % 2);
    DrainResult result;
    if (RCUA_SCHED_MUT(ebr_skip_drain)) return result;
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    if constexpr (Layout::kOwned) {
      if (RCUA_SCHED_MUT(ebr_skip_fence) && hoisted_scan_zero_[idx]) {
        // The hoisted (pre-bump) scan saw an empty column; without the
        // fence the writer believes the drain already completed.
        hoisted_scan_zero_[idx] = false;
        return result;
      }
    }
#endif
    obs::TraceSpan span("rcu.drain_wait", "rcu");
    const std::uint64_t start = grace_clock_ns();
    result.drained = plat::wait_until(
        "ebr.wait_for_readers", [&] { return column_sum(idx) == 0; },
        deadline_ns);
    result.waited_ns = grace_clock_ns() - start;
    // Timed-out waits are recorded too: the tail of the grace histogram
    // is the stalled-reader signal.
    obs::health::grace_ns().record(result.waited_ns);
    if (result.drained) {
      sim::charge(sim::CostModel::get().epoch_drain_ns);
      return result;
    }
    result.stuck_readers = column_sum(idx);
    bank_.for_each([&](std::size_t i, const ReaderSlot& s) {
      if (result.stuck_slot == SIZE_MAX &&
          s.count[idx].load(std::memory_order_acquire) != 0) {
        result.stuck_slot = i;
      }
    });
    if (Layout::kOwned && result.stuck_slot != SIZE_MAX) {
      result.stuck_thread = plat::reader_thread_id(result.stuck_slot);
    }
    return result;
  }

  /// advance + drain in one call ("synchronize_rcu").
  void synchronize() noexcept { wait_for_readers(advance_epoch()); }

  [[nodiscard]] EpochT epoch() const noexcept {
    return epoch_->load(std::memory_order_seq_cst);
  }

  /// Sum of the given parity's counters across all slots.
  [[nodiscard]] std::uint64_t readers_at(std::size_t parity) const noexcept {
    return column_sum(parity % 2);
  }

  /// One slot's count at `parity` (tests of slot ownership): the owned
  /// layout's slot `index` belongs to the thread with that reader index;
  /// the legacy layout has the one slot 0. 0 for a slot never allocated.
  [[nodiscard]] std::uint64_t readers_in_slot(std::size_t index,
                                              std::size_t parity) const
      noexcept {
    const ReaderSlot* s = bank_.find(index);
    return s == nullptr ? 0
                        : s->count[parity % 2].load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    bank_.for_each([&](std::size_t, const ReaderSlot& r) {
      s.reads += r.reads.load(std::memory_order_relaxed);
      s.read_retries += r.retries.load(std::memory_order_relaxed);
    });
    s.epoch_advances = epoch_advances_.value.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Grace-period timestamps follow the trace-layer convention: virtual
  /// time when a TaskClock is attached (deterministic under the sched
  /// harness), wall time otherwise. Reading now_v() charges nothing.
  [[nodiscard]] static std::uint64_t grace_clock_ns() noexcept {
    return sim::enabled() ? sim::now_v() : plat::now_ns();
  }

  /// ReadGuard's entry loop (lines 10-13 + the undo/retry of line 17).
  /// Returns the announced counter, which the guard retracts when it
  /// ends.
  Held announce() {
    ReaderSlot& slot = bank_.mine();
    for (;;) {
      // Attempt to record our read (lines 10-12).
      const EpochT e = epoch_->load(std::memory_order_seq_cst);
      if (test_read_hook != nullptr) test_read_hook(*this, 0);
      const auto parity = static_cast<std::size_t>(e % 2);
      std::atomic<std::uint64_t>& count = slot.count[parity];
      if constexpr (Layout::kOwned) {
        // Only the owner stores to its slot, so this load and the
        // exchange below are one increment.
        const std::uint64_t open = count.load(std::memory_order_relaxed);
        RCUA_SCHED_POINT("ebr.read.epoch_loaded");
        count.exchange(open + 1, std::memory_order_seq_cst);
      } else {
        RCUA_SCHED_POINT("ebr.read.epoch_loaded");
        count.fetch_add(1, std::memory_order_seq_cst);
      }
      bank_.charge_enter(parity);
      if (test_read_hook != nullptr) test_read_hook(*this, 1);
      RCUA_SCHED_POINT("ebr.read.announced");
      // Did the snapshot possibly change before we recorded? (line 13)
      bool verified = epoch_->load(std::memory_order_seq_cst) == e;
      if (RCUA_SCHED_MUT(ebr_skip_reverify)) verified = true;
      if (verified) {
        count_stat(slot, /*retry=*/false);
        return {&count, parity};
      }
      // Undo and try again (line 17).
      leave(count, parity);
      count_stat(slot, /*retry=*/true);
    }
  }

  /// The undo (line 17) and the retract: a release store in the owned
  /// layout, so the section happens-before a drain that reads the
  /// decremented count; the paper's seq_cst RMW in the legacy one.
  void leave(std::atomic<std::uint64_t>& count, std::size_t parity) noexcept {
    if constexpr (Layout::kOwned) {
      count.store(count.load(std::memory_order_relaxed) - 1,
                  std::memory_order_release);
    } else {
      count.fetch_sub(1, std::memory_order_seq_cst);
    }
    bank_.charge_leave(parity);
  }

  [[nodiscard]] std::uint64_t column_sum(std::size_t idx) const noexcept {
    std::uint64_t sum = 0;
    bank_.for_each([&](std::size_t, const ReaderSlot& s) {
      sum += s.count[idx].load(Layout::kOwned ? std::memory_order_acquire
                                              : std::memory_order_seq_cst);
    });
    return sum;
  }

  void count_stat(ReaderSlot& slot, bool retry) noexcept {
    std::atomic<std::uint64_t>& c = retry ? slot.retries : slot.reads;
    if constexpr (Layout::kOwned) {
      c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    } else {
      c.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // GlobalEpoch on its own cache line, then the reader bank.
  plat::CacheAligned<std::atomic<EpochT>> epoch_{EpochT{0}};
  Layout bank_;
  plat::CacheAligned<std::atomic<std::uint64_t>> epoch_advances_{0ULL};
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  /// ebr_skip_fence emulation state (see advance_epoch); written and
  /// consumed only by the (lock-serialized) writer.
  bool hoisted_scan_zero_[2] = {false, false};
#endif
};

/// The tag of a retired object on an EBR overflow RetireList: one whose
/// grace-period wait timed out. It may be freed once BOTH reader columns
/// have each been observed empty at some time after the push. Its own
/// retire parity alone is NOT sufficient: a timed-out grace period means
/// the writer ran ahead of a stalled reader, and that reader — announced
/// on the *other* parity — may have loaded this very object before it
/// was unpublished (DESIGN.md §8; the schedule harness finds this bug
/// when the single-parity shortcut is mutated back in).
struct OverflowTag {
  /// Parity of the epoch the object was retired under.
  std::size_t parity = 0;
  /// Which reader columns have been observed empty since the push.
  bool seen_empty[2] = {false, false};
};

/// Observes both reader columns through `drained(parity)` and frees every
/// overflow entry that has now seen each column empty at least once
/// since its push. The observations are banked in each entry's tag, so a
/// stalled reader on one parity delays reclamation but never loses the
/// other column's observation. The `watchdog_skip_recheck` mutation
/// (sched builds only) regresses to gating on the entry's own retire
/// parity — the plausible-but-unsound shortcut the harness must catch.
template <typename Drained>
Freed sweep_overflow(RetireList<OverflowTag>& list, Drained&& drained) {
  bool empty[2] = {false, false};
  return list.sweep(
      [&] {
        empty[0] = drained(std::size_t{0});
        empty[1] = drained(std::size_t{1});
      },
      [&](OverflowTag& tag) {
        tag.seen_empty[0] = tag.seen_empty[0] || empty[0];
        tag.seen_empty[1] = tag.seen_empty[1] || empty[1];
        if (RCUA_SCHED_MUT(watchdog_skip_recheck)) {
          return tag.seen_empty[tag.parity];
        }
        return tag.seen_empty[0] && tag.seen_empty[1];
      });
}

/// Default epoch width and layout used by RCUArray.
using Ebr = BasicEbr<std::uint64_t, OwnedReaders>;
/// The paper's original 2-counter collective layout (A/B baseline).
using LegacyEbr = BasicEbr<std::uint64_t, LegacyReaders>;

}  // namespace rcua::reclaim
