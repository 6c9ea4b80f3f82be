#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "reclaim/stall_monitor.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

#if defined(RCUA_STATS) && RCUA_STATS
#define RCUA_EBR_STATS 1
#else
#define RCUA_EBR_STATS 0
#endif

namespace rcua::reclaim {

/// Outcome of a drain (BasicEbr::wait_for_readers). Only a deadline-
/// bounded drain can time out; then the stuck-stripe fields identify the
/// offender for the stall diagnostic.
struct DrainResult {
  bool drained = true;
  std::uint64_t waited_ns = 0;
  /// First stripe whose old-parity slot was non-zero at expiry
  /// (SIZE_MAX when drained or when the column emptied between checks).
  std::size_t stuck_stripe = SIZE_MAX;
  /// Old-parity column sum observed at expiry.
  std::uint64_t stuck_readers = 0;
};

/// Default number of reader-counter stripes: the hardware thread count
/// rounded up to a power of two (clamped to [1, 256]), overridable with
/// the RCUA_EBR_STRIPES environment variable (also rounded/clamped).
[[nodiscard]] std::size_t default_ebr_stripes();

/// Reader-counter layout policies (the A/B knob for the ablation bench).
///
/// `StripedReaders` is the optimized layout: `stripes × 2` cache-line
/// padded announcement slots, stripe picked by a cheap hash of the
/// calling thread, announce/retract RMWs weakened to acq_rel and paired
/// with a writer-side seq_cst fence after the epoch bump.
///
/// `LegacyReaders` is the paper's original collective layout — one
/// `EpochReaders[2]` pair shared by every reader on the locale, all
/// RMWs seq_cst — kept selectable so benches can A/B the two in one
/// binary and tests can pin the paper's exact cost structure.
struct StripedReaders {
  static constexpr bool kStriped = true;
};
struct LegacyReaders {
  static constexpr bool kStriped = false;
};

/// The paper's novel TLS-free Epoch-Based Reclamation (Algorithm 1),
/// with a striped read side.
///
/// Readers announce themselves *collectively* on one of two columns of a
/// counter bank, selected by the parity of a monotonically increasing
/// `GlobalEpoch`. The read side is
///
///     loop:
///       e   <- GlobalEpoch                   (line 10)
///       idx <- e % 2                         (line 11)
///       Bank[stripe][idx] += 1               (line 12, the announcement)
///       if GlobalEpoch == e:                 (line 13, the verification)
///         r <- lambda(snapshot); Bank[stripe][idx] -= 1; return r
///       Bank[stripe][idx] -= 1; retry        (line 17)
///
/// and the write side, after publishing the new snapshot, bumps the epoch
/// and waits for the *old* parity's column — summed across stripes — to
/// drain before reclaiming (lines 5-8). Lemma 1 guarantees at most two
/// live snapshots (the writer holds a cluster lock), so two columns
/// suffice, and Lemma 2 shows parity is preserved even across integer
/// overflow of the epoch — which is why the epoch type is a template
/// parameter: tests instantiate `BasicEbr<std::uint8_t>` and drive it
/// through wrap-around for real.
///
/// Striping (DEBRA's observation, kept TLS-free): the paper attributes
/// EBR's collapse to every reader on a locale hammering the same two
/// cache lines with seq_cst RMWs. Hashing each reader onto its own
/// padded slot makes the announce/retract RMWs almost-always
/// uncontended; summing a column preserves the drain condition because a
/// reader only ever announces and retracts on one slot. Memory ordering:
/// the announce/retract RMWs are acq_rel, the epoch load/verify stays
/// seq_cst, and `advance_epoch` issues a seq_cst fence after the bump —
/// the line-13 argument needs only that a reader whose verify load saw
/// the pre-bump epoch has its announcement visible to the writer's
/// post-fence drain scan (see DESIGN.md §5).
template <typename EpochT = std::uint64_t, typename Layout = StripedReaders>
class BasicEbr {
  static_assert(std::is_unsigned_v<EpochT>,
                "epochs rely on unsigned wrap-around (Lemma 2)");

 public:
  /// `stripe_count` of 0 means `default_ebr_stripes()`; any other value
  /// is rounded up to a power of two. LegacyReaders always uses one
  /// stripe (the original EpochReaders[2] pair).
  BasicEbr() : BasicEbr(EpochT{0}) {}
  explicit BasicEbr(EpochT initial_epoch, std::size_t stripe_count = 0)
      : stripes_(Layout::kStriped
                     ? round_up_pow2(stripe_count != 0 ? stripe_count
                                                       : default_ebr_stripes())
                     : 1),
        stripe_mask_(stripes_ - 1),
        slots_(new Slot[stripes_ * 2]),
        slot_lines_(new sim::VirtualResource[stripes_ * 2])
#if RCUA_EBR_STATS
        ,
        stripe_stats_(new StripeStats[stripes_])
#endif
  {
    epoch_->store(initial_epoch, std::memory_order_relaxed);
  }
  BasicEbr(const BasicEbr&) = delete;
  BasicEbr& operator=(const BasicEbr&) = delete;

  /// Observability counters. `reads` and `read_retries` are maintained
  /// per-stripe and only when the library is built with -DRCUA_STATS=ON
  /// (they are read-side RMWs, so by default they compile out of the hot
  /// path entirely and report 0). `epoch_advances` is write-side and
  /// always maintained.
  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t epoch_advances = 0;
  };

  static constexpr bool kStatsEnabled = RCUA_EBR_STATS != 0;
  static constexpr bool kStripedLayout = Layout::kStriped;

  /// Test-only fault injection: when non-null, invoked at the read-side
  /// linearization points — phase 0 after the epoch load (line 10) and
  /// phase 1 after the increment, before verification (line 13). Tests
  /// install a hook that advances the epoch at exactly these points to
  /// exercise the retry path (line 17) deterministically; production code
  /// leaves it null (one predicted-not-taken branch per site). `read()`
  /// is a `ReadGuard` scope, so the hook fires identically on either.
  using ReadHook = void (*)(BasicEbr&, int phase);
  ReadHook test_read_hook = nullptr;

  /// Test-only stripe pin: when >= 0, announcements land on this stripe
  /// (mod stripe count) instead of the thread-hash choice. Lets unit
  /// tests place readers on known stripes to exercise the drain's
  /// cross-stripe summation.
  std::int32_t test_stripe_override = -1;

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

  /// RAII read-side critical section: announces on construction and
  /// retracts on destruction, unwinding included. The one read path;
  /// read() is a guard scope around its λ.
  class ReadGuard {
   public:
    explicit ReadGuard(BasicEbr& ebr) : ebr_(ebr), slot_(ebr.announce()) {
      obs::trace_event("rcu.read_section", "rcu", 'B');
      dwell_start_ = dwell_clock_if_enabled();
    }
    ~ReadGuard() {
      RCUA_SCHED_POINT("ebr.guard.leave");
      note_section_end(dwell_start_);
      ebr_.retract(slot_);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    BasicEbr& ebr_;
    std::size_t slot_;
    std::uint64_t dwell_start_ = 0;
  };

  /// Write-side epoch bump (RCU_Write line 5). Returns the *previous*
  /// epoch, whose parity selects the column to drain. The caller must
  /// hold the structure's write lock and must already have published the
  /// new snapshot. In the striped layout the bump is followed by a
  /// seq_cst fence: the drain's counter loads must not be satisfied
  /// before the new epoch is visible, or a reader that announced and
  /// verified against the old epoch could be missed (the StoreLoad edge
  /// the all-seq_cst legacy layout got implicitly).
  EpochT advance_epoch() noexcept {
    epoch_advances_.value.fetch_add(1, std::memory_order_relaxed);
    sim::charge(sim::CostModel::get().atomic_rmw_ns);
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    if constexpr (Layout::kStriped) {
      if (RCUA_SCHED_MUT(ebr_skip_fence)) {
        // SC emulation of the reordering the fence forbids: without the
        // fence the drain's first column scan may be satisfied by values
        // read before the epoch store became visible. Sample the
        // soon-to-be-old column here, pre-bump; wait_for_readers consumes
        // the sample as its (hoisted) first check.
        const auto old_idx = static_cast<std::size_t>(
            epoch_->load(std::memory_order_seq_cst) % 2);
        hoisted_scan_zero_[old_idx] = column_sum(old_idx) == 0;
        RCUA_SCHED_POINT("ebr.advance.hoisted_scan");
      }
    }
#endif
    RCUA_SCHED_POINT("ebr.advance_epoch");
    const EpochT prev = epoch_->fetch_add(1, std::memory_order_seq_cst);
    if constexpr (Layout::kStriped) {
      if (!RCUA_SCHED_MUT(ebr_skip_fence)) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
    obs::trace_instant("rcu.epoch_bump", "rcu",
                       static_cast<std::uint64_t>(prev) + 1);
    return prev;
  }

  /// Waits until every reader recorded under `old_epoch`'s parity has
  /// evacuated (RCU_Write lines 6-7): the old-parity column, summed over
  /// all stripes, must reach zero. A reader only ever announces and
  /// retracts on a single slot, so a zero sum means every announced
  /// old-parity reader has retracted. After a drained result, memory
  /// only reachable from the pre-bump snapshot may be reclaimed.
  ///
  /// A non-zero `deadline_ns` bounds the wait (StallPolicy). On timeout
  /// the result carries the stall evidence — the column sum and the
  /// first stuck stripe — so the caller can emit a StallDiagnostic and
  /// defer the retired memory onto an OverflowRetireList instead of
  /// blocking forever.
  DrainResult wait_for_readers(EpochT old_epoch,
                               std::uint64_t deadline_ns = 0) noexcept {
    const std::size_t idx = static_cast<std::size_t>(old_epoch % 2);
    DrainResult result;
    if (RCUA_SCHED_MUT(ebr_skip_drain)) return result;
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    if constexpr (Layout::kStriped) {
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
    result.stuck_stripe = scan_stalled_stripe(idx);
    return result;
  }

  /// First stripe currently holding a non-zero count at `parity`;
  /// SIZE_MAX when the column is empty. Watchdog detection surface.
  [[nodiscard]] std::size_t scan_stalled_stripe(std::size_t parity) const
      noexcept {
    const std::size_t idx = parity % 2;
    for (std::size_t s = 0; s < stripes_; ++s) {
      if (slots_[s * 2 + idx]->load(std::memory_order_acquire) != 0) return s;
    }
    return SIZE_MAX;
  }

  /// advance + drain in one call ("synchronize_rcu").
  void synchronize() noexcept { wait_for_readers(advance_epoch()); }

  [[nodiscard]] EpochT epoch() const noexcept {
    return epoch_->load(std::memory_order_seq_cst);
  }

  /// Sum of the given parity's column across all stripes.
  [[nodiscard]] std::uint64_t readers_at(std::size_t parity) const noexcept {
    return column_sum(parity % 2);
  }

  /// One slot of the bank (tests of the stripe summation).
  [[nodiscard]] std::uint64_t readers_at_stripe(std::size_t stripe,
                                                std::size_t parity) const
      noexcept {
    return slots_[(stripe & stripe_mask_) * 2 + (parity % 2)]->load(
        std::memory_order_seq_cst);
  }

  [[nodiscard]] std::size_t stripe_count() const noexcept { return stripes_; }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
#if RCUA_EBR_STATS
    for (std::size_t i = 0; i < stripes_; ++i) {
      s.reads += stripe_stats_[i].reads.load(std::memory_order_relaxed);
      s.read_retries +=
          stripe_stats_[i].retries.load(std::memory_order_relaxed);
    }
#endif
    s.epoch_advances = epoch_advances_.value.load(std::memory_order_relaxed);
    return s;
  }

 private:
  using Slot = plat::CacheAligned<std::atomic<std::uint64_t>>;

#if RCUA_EBR_STATS
  struct alignas(plat::kCacheLine) StripeStats {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> retries{0};
  };
#endif

  static constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n && p < 256) p <<= 1;
    return p;
  }

  /// Grace/dwell timestamps follow the trace-layer convention: virtual
  /// time when a TaskClock is attached (deterministic under the sched
  /// harness), wall time otherwise. Reading now_v() charges nothing.
  [[nodiscard]] static std::uint64_t grace_clock_ns() noexcept {
    return sim::enabled() ? sim::now_v() : plat::now_ns();
  }

  /// Dwell timing costs two clock reads per read section, so it is
  /// gated behind RCUA_METRICS (detailed_metrics_enabled). Returns 0
  /// when disabled; 0 doubles as the "don't record" sentinel.
  [[nodiscard]] static std::uint64_t dwell_clock_if_enabled() noexcept {
    return obs::detailed_metrics_enabled() ? grace_clock_ns() : 0;
  }

  static void note_section_end(std::uint64_t dwell_start) noexcept {
    obs::trace_event("rcu.read_section", "rcu", 'E');
    if (dwell_start != 0) {
      obs::health::reader_dwell_ns().record(grace_clock_ns() - dwell_start);
    }
  }

  /// Announce/retract ordering: the striped layout relies on the
  /// writer-side fence for the StoreLoad edge, so its reader RMWs only
  /// need acq_rel (release so the drain's acquire loads order the
  /// critical section before reclamation; acquire so the section's loads
  /// cannot hoist above the announcement). The legacy layout keeps the
  /// paper's all-seq_cst RMWs.
  static constexpr std::memory_order reader_rmw_order() noexcept {
    return Layout::kStriped ? std::memory_order_acq_rel
                            : std::memory_order_seq_cst;
  }

  [[nodiscard]] std::size_t current_stripe() const noexcept {
    if constexpr (!Layout::kStriped) return 0;
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    // Under the deterministic scheduler the stripe must be a function of
    // the logical task, not of the (run-varying) OS thread identity, or
    // seeds would not replay.
    if (testing::sched_task_active()) {
      return testing::sched_task_id() & stripe_mask_;
    }
#endif
    if (test_stripe_override >= 0) {
      return static_cast<std::size_t>(test_stripe_override) & stripe_mask_;
    }
    return plat::stripe_index(stripes_);
  }

  /// ReadGuard's entry loop (lines 10-13 + the undo/retry of line 17).
  /// Returns the bank slot index the guard retracts from when it ends.
  std::size_t announce() {
    for (;;) {
      // Attempt to record our read (lines 10-12).
      const EpochT e = epoch_->load(std::memory_order_seq_cst);
      if (test_read_hook != nullptr) test_read_hook(*this, 0);
      RCUA_SCHED_POINT("ebr.read.epoch_loaded");
      const std::size_t stripe = current_stripe();
      const std::size_t slot = stripe * 2 + static_cast<std::size_t>(e % 2);
      slots_[slot]->fetch_add(1, reader_rmw_order());
      charge_reader_rmw(slot);
      if (test_read_hook != nullptr) test_read_hook(*this, 1);
      RCUA_SCHED_POINT(announce_site(stripe));
      // Did the snapshot possibly change before we recorded? (line 13)
      bool verified = epoch_->load(std::memory_order_seq_cst) == e;
      if (RCUA_SCHED_MUT(ebr_skip_reverify)) verified = true;
      if (verified) {
        count_read(stripe);
        return slot;
      }
      // Undo and try again (line 17).
      slots_[slot]->fetch_sub(1, reader_rmw_order());
      charge_reader_rmw(slot);
      count_retry(stripe);
    }
  }

  void retract(std::size_t slot) noexcept {
    slots_[slot]->fetch_sub(1, reader_rmw_order());
    charge_reader_rmw(slot);
  }

  [[nodiscard]] std::uint64_t column_sum(std::size_t idx) const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < stripes_; ++s) {
      sum += slots_[s * 2 + idx]->load(Layout::kStriped
                                           ? std::memory_order_acquire
                                           : std::memory_order_seq_cst);
    }
    return sum;
  }

  void count_read(std::size_t stripe) noexcept {
#if RCUA_EBR_STATS
    stripe_stats_[stripe].reads.fetch_add(1, std::memory_order_relaxed);
#else
    (void)stripe;
#endif
  }
  void count_retry(std::size_t stripe) noexcept {
#if RCUA_EBR_STATS
    stripe_stats_[stripe].retries.fetch_add(1, std::memory_order_relaxed);
#else
    (void)stripe;
#endif
  }

  void charge_reader_rmw(std::size_t slot) noexcept {
    if (!sim::enabled()) return;
    if constexpr (Layout::kStriped) {
      // A stripe's line stays in its (usual) owner's cache: a reader
      // re-announcing on its own stripe pays an uncontended RMW; only a
      // hash collision (or a writer's drain scan racing in) transfers
      // the line. This is the regime split the striping buys.
      const auto& m = sim::CostModel::get();
      slot_lines_[slot].use_owned(m.rmw_transfer_ns, m.atomic_rmw_ns);
    } else {
      // Modeled as always-contended: the whole point of the collective
      // counters is that every reader on the locale hammers them, so the
      // line ping-pongs on every RMW. (A truly solo reader is overcharged
      // in virtual time; the paper never evaluates that regime.)
      slot_lines_[slot].use(sim::CostModel::get().rmw_transfer_ns);
    }
  }

  /// Static per-stripe site names so sched traces show which stripe an
  /// announcement landed on without allocating.
  static const char* announce_site(std::size_t stripe) noexcept {
    static constexpr const char* kSites[] = {
        "ebr.read.announced[s0]", "ebr.read.announced[s1]",
        "ebr.read.announced[s2]", "ebr.read.announced[s3]",
        "ebr.read.announced[s4]", "ebr.read.announced[s5]",
        "ebr.read.announced[s6]", "ebr.read.announced[s7]",
    };
    return stripe < 8 ? kSites[stripe] : "ebr.read.announced";
  }

  // GlobalEpoch on its own cache line; the reader bank is stripes × 2
  // padded slots, slot (stripe, parity) at index stripe*2 + parity.
  plat::CacheAligned<std::atomic<EpochT>> epoch_{EpochT{0}};
  std::size_t stripes_;
  std::size_t stripe_mask_;
  std::unique_ptr<Slot[]> slots_;
  // Virtual-time contention model, one line per bank slot.
  std::unique_ptr<sim::VirtualResource[]> slot_lines_;
#if RCUA_EBR_STATS
  std::unique_ptr<StripeStats[]> stripe_stats_;
#endif
  plat::CacheAligned<std::atomic<std::uint64_t>> epoch_advances_{0ULL};
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  /// ebr_skip_fence emulation state (see advance_epoch); written and
  /// consumed only by the (lock-serialized) writer.
  bool hoisted_scan_zero_[2] = {false, false};
#endif
};

/// Default epoch width and layout used by RCUArray.
using Ebr = BasicEbr<std::uint64_t, StripedReaders>;
/// The paper's original 2-counter collective layout (A/B baseline).
using LegacyEbr = BasicEbr<std::uint64_t, LegacyReaders>;

}  // namespace rcua::reclaim
