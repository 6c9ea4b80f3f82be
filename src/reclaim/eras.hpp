#pragma once

// Era-based bounded-memory reclamation: interval-based reclamation (IBR)
// and hazard eras as first-class RCUArray reclaimer policies — the
// reclamation tier Brown's critique of EBR calls for (PAPERS.md), where
// unreclaimed memory is bounded *by construction* instead of by the §8
// watchdog's overflow budget.
//
// Both schemes share one mechanism, so both are instantiations of
// `BasicEraReclaimer`:
//
//  * A monotone per-domain **era clock**, bumped by every retire on the
//    write side. No reader ever advances it.
//  * Every retired object carries an era **lifetime tag** [birth,
//    retire]: `birth` is the era current when the object was allocated
//    (stamped by the owner before publication), `retire` the era current
//    when it was unpublished and handed to `retire()`.
//  * Readers claim one padded **reservation slot** (CAS, preferred index
//    derived from the logical task / thread) and publish era values into
//    it through `ReadGuard::protect()`, a publish-then-reverify loop:
//
//        e <- Era                      (publish the reservation at e)
//        loop:
//          p <- src                    (the protected pointer load)
//          e' <- Era
//          if e' == e: return p        (no era advanced across the load)
//          e <- e'; republish; retry
//
//    The exit condition pins the protected object's tags against the
//    reservation: birth(p) <= era(load) <= e, and any retire of p after
//    the load stamps retire(p) >= e (the era did not move between the
//    publish and the verify, and it never decreases). Hence the interval
//    overlap check below covers every protected object even though a
//    protect and a retire can share one era.
//  * `retire()` appends to a per-domain list and scans it against the
//    live reservations: an entry [b, r] stays **blocked** while some
//    reservation [lo, hi] satisfies `lo <= r && b <= hi`; everything
//    else is freed immediately. No grace-period wait exists on this
//    path — where EBR's writer blocks (or defers onto the bytes-budgeted
//    overflow list), an era writer always completes its retire in O(slots
//    + pending) and moves on.
//
// The two schemes differ only in what a reservation holds:
//
//  * **IBR** (`kPinLower = true`): the slot holds a real interval — the
//    lower bound is pinned at the section's first protect and only the
//    upper bound advances. A section that protects across several era
//    bumps keeps every object it could have seen covered.
//  * **Hazard eras** (`kPinLower = false`): the slot holds a single era
//    (lower == upper, both republished on every retry) — cheaper
//    semantics, per-pointer protection exactly like hazard pointers but
//    with an era tag instead of the pointer value.
//
// Bounded memory under a stalled reader (the robustness gate this tier
// exists for): a stalled reservation is a *fixed* [lo, hi]. Every object
// allocated after the stall has birth > hi once the era clock has moved,
// so the reservation blocks at most the objects already live in its
// window — a constant set — while the clock (bumped per retire) runs
// away. Contrast EBR, where the stalled parity column gates every later
// retirement, and QSBR, where the laggard pins the global minimum: both
// grow without bound. DESIGN.md §13 carries the full argument and the
// Lemma 6 generalization for era-tagged spines.
//
// Sched-harness mutations (testing/sched_point.hpp):
//   ibr_reserve_after_load — publish the reservation only AFTER the
//     pointer load, no reverify (the tempting "load first, then
//     reserve what you saw" order). Unsound: a writer can retire and
//     scan in the window, see no reservation, and free the loaded
//     object.
//   he_clear_before_access — clear the hazard-era slot as soon as the
//     pointer is in hand, before the section's last access (the
//     "the pointer is already local, the slot is dead weight"
//     optimization). Unsound for the same reason hazard pointers must
//     hold their slot for the whole section.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/spinlock.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

#if defined(RCUA_STATS) && RCUA_STATS
#define RCUA_ERA_STATS 1
#else
#define RCUA_ERA_STATS 0
#endif

namespace rcua::reclaim {

/// Default reservation-slot count: twice the hardware thread count
/// rounded up to a power of two (clamped to [2, 512]), overridable with
/// the RCUA_ERA_SLOTS environment variable. Reservations are per-reader
/// state (not additive like EBR's counters), so the slot count bounds
/// concurrent read sections per domain; a reader finding every slot
/// claimed waits for one.
[[nodiscard]] std::size_t default_era_slots();

/// Outcome of one retire()/scan(): what was freed, what stays blocked,
/// and the stall evidence (how far the slowest live reservation trails
/// the era clock) the caller can turn into a StallDiagnostic.
struct RetireResult {
  std::size_t freed_objects = 0;
  std::size_t freed_bytes = 0;
  /// Still blocked by a live reservation after the scan.
  std::size_t pending_objects = 0;
  std::size_t pending_bytes = 0;
  /// Era clock at scan time.
  std::uint64_t era = 0;
  /// era - min(live reservation upper bound); 0 with no reservations.
  /// A lag that grows across retires is the stalled-reader signal — a
  /// healthy reader re-enters with a fresh era, a stalled one does not.
  std::uint64_t reservation_lag = 0;
  /// Count of live reservations whose upper bound trails the era clock.
  std::uint64_t stale_reservations = 0;
  /// Slot index of the reservation setting the lag (SIZE_MAX = none).
  std::size_t laggard_slot = SIZE_MAX;
};

/// Reservation shapes (the only point where IBR and hazard eras differ).
struct IbrReservations {
  static constexpr bool kPinLower = true;
  static constexpr const char* kPolicyTag = "ibr";
};
struct HazardEraReservations {
  static constexpr bool kPinLower = false;
  static constexpr const char* kPolicyTag = "he";
};

template <typename Shape>
class BasicEraReclaimer {
  struct Slot;  // declared below; named in ReadGuard's signatures

 public:
  /// Sentinel era meaning "slot holds no reservation".
  static constexpr std::uint64_t kIdleEra = UINT64_MAX;
  static constexpr bool kStatsEnabled = RCUA_ERA_STATS != 0;
  static constexpr bool kPinLower = Shape::kPinLower;

  /// `slot_count` of 0 means default_era_slots(); any other value is
  /// rounded up to a power of two (clamped like the default).
  BasicEraReclaimer() : BasicEraReclaimer(0) {}
  explicit BasicEraReclaimer(std::uint64_t initial_era,
                             std::size_t slot_count = 0)
      : nslots_(round_up_pow2(slot_count != 0 ? slot_count
                                              : default_era_slots())),
        slot_mask_(nslots_ - 1),
        slots_(new Slot[nslots_]),
        reservation_lines_(new sim::VirtualResource[nslots_]),
#if RCUA_ERA_STATS
        slot_stats_(new SlotStats[nslots_]),
#endif
        unreclaimed_gauge_(
            &obs::health::unreclaimed_bytes_hwm(Shape::kPolicyTag)) {
    era_.value.store(initial_era, std::memory_order_relaxed);
  }
  BasicEraReclaimer(const BasicEraReclaimer&) = delete;
  BasicEraReclaimer& operator=(const BasicEraReclaimer&) = delete;
  ~BasicEraReclaimer() { flush_unsafe(); }

  /// Observability counters. `reads`/`read_retries` are per-slot and
  /// only maintained under -DRCUA_STATS=ON (read-side RMWs, compiled out
  /// by default); everything else is write-side and always live.
  /// `epoch_advances` counts era-clock advances — named for drop-in
  /// compatibility with BasicEbr::Stats (bench_stat lines).
  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t read_retries = 0;
    std::uint64_t epoch_advances = 0;
    std::uint64_t era_scans = 0;
    std::uint64_t retired = 0;
    std::uint64_t freed = 0;
    std::size_t pending_objects = 0;
    std::size_t pending_bytes = 0;
    /// High-water pending bytes — the measured bounded-memory claim.
    std::size_t pending_bytes_hwm = 0;
  };

  /// Test-only slot pin: when >= 0, readers claim from this preferred
  /// index (mod slot count) instead of the task/thread-derived choice.
  std::int32_t test_slot_override = -1;

  /// RAII read-side critical section. Construction claims a reservation
  /// slot (waiting if all are claimed); `protect()` publishes era
  /// reservations and returns a pointer guaranteed not to be reclaimed
  /// while the guard lives; destruction clears and releases the slot.
  class ReadGuard {
   public:
    explicit ReadGuard(BasicEraReclaimer& dom)
        : dom_(dom), slot_(dom.claim_slot()) {
      obs::trace_event("rcu.read_section", "rcu", 'B');
    }
    ~ReadGuard() {
      RCUA_SCHED_POINT("era.guard.leave");
      obs::trace_event("rcu.read_section", "rcu", 'E');
      dom_.release_slot(slot_);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// Loads a pointer from `src` under a published era reservation (the
    /// publish-then-reverify loop in the header comment). The returned
    /// object — and, transitively, anything whose era lifetime encloses
    /// its own, e.g. the blocks under an RCUArray spine — stays
    /// unreclaimed until the guard dies. May be called more than once
    /// per section; under IBR the reservation's lower bound stays pinned
    /// at the first protect.
    template <typename P>
    [[nodiscard]] P* protect(const std::atomic<P*>& src) {
      Slot& s = dom_.slots_[slot_];
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
      if constexpr (Shape::kPinLower) {
        if (RCUA_SCHED_MUT(ibr_reserve_after_load)) {
          // MUTATION: load first, then reserve what was seen — no
          // reverify. Between the load and the publish a writer's
          // retire+scan observes no reservation and frees the loaded
          // object (tests/test_sched_eras.cpp).
          P* p = src.load(std::memory_order_seq_cst);
          RCUA_SCHED_POINT("era.protect.load_unreserved");
          publish(s, dom_.era_.value.load(std::memory_order_seq_cst));
          dom_.count_read(slot_);
          return p;
        }
      }
#endif
      std::uint64_t e = dom_.era_.value.load(std::memory_order_seq_cst);
      for (;;) {
        publish(s, e);
        RCUA_SCHED_POINT("era.protect.reserved");
        P* p = src.load(std::memory_order_seq_cst);
        const std::uint64_t now =
            dom_.era_.value.load(std::memory_order_seq_cst);
        if (now == e) {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
          if constexpr (!Shape::kPinLower) {
            if (RCUA_SCHED_MUT(he_clear_before_access)) {
              // MUTATION: the pointer is in hand, so drop the slot
              // before the section's accesses — the classic premature
              // hazard release (tests/test_sched_eras.cpp).
              s.lower.store(kIdleEra, std::memory_order_seq_cst);
              s.upper.store(kIdleEra, std::memory_order_seq_cst);
              RCUA_SCHED_POINT("era.protect.cleared_early");
            }
          }
#endif
          dom_.count_read(slot_);
          return p;
        }
        e = now;
        dom_.count_retry(slot_);
      }
    }

    /// The claimed reservation slot (tests of the slot machinery).
    [[nodiscard]] std::size_t slot() const noexcept { return slot_; }

   private:
    void publish(Slot& s, std::uint64_t e) noexcept {
      if constexpr (Shape::kPinLower) {
        // IBR: the lower bound is written once per section.
        if (!published_) {
          s.lower.store(e, std::memory_order_seq_cst);
          published_ = true;
        }
      } else {
        s.lower.store(e, std::memory_order_seq_cst);
      }
      s.upper.store(e, std::memory_order_seq_cst);
      dom_.charge_slot_rmw(slot_);
    }

    BasicEraReclaimer& dom_;
    std::size_t slot_;
    bool published_ = false;
  };

  // -- Write side --------------------------------------------------------

  [[nodiscard]] std::uint64_t current_era() const noexcept {
    return era_.value.load(std::memory_order_seq_cst);
  }

  /// Bumps the era clock; returns the NEW era value. (BasicEbr's
  /// advance_epoch returns the previous epoch — the different name keeps
  /// the two conventions from colliding.)
  std::uint64_t advance_era() noexcept {
    era_advances_.value.fetch_add(1, std::memory_order_relaxed);
    sim::charge(sim::CostModel::get().atomic_rmw_ns);
    RCUA_SCHED_POINT("era.advance");
    const std::uint64_t next =
        era_.value.fetch_add(1, std::memory_order_seq_cst) + 1;
    obs::trace_instant("rcu.epoch_bump", "rcu", next);
    return next;
  }

  /// Retires `(deleter, obj)` with allocation-era tag `birth_era`,
  /// stamps the retire era, ticks the era clock and scans against the
  /// live reservations. NEVER waits on readers: where EBR's writer drains a
  /// parity column, this returns in O(slots + pending) with everything
  /// unblocked freed and the blocked remainder carried as pending (the
  /// bounded-by-construction contract).
  RetireResult retire(void (*deleter)(void*), void* obj, std::size_t bytes,
                      std::uint64_t birth_era) {
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      list_.push_back({deleter, obj, bytes, birth_era,
                       era_.value.load(std::memory_order_seq_cst)});
    }
    retired_.value.fetch_add(1, std::memory_order_relaxed);
    pending_objects_.value.fetch_add(1, std::memory_order_relaxed);
    note_pending_hwm(
        pending_bytes_.value.fetch_add(bytes, std::memory_order_relaxed) +
        bytes);
    RCUA_SCHED_POINT("era.retire");
    advance_era();
    return scan();
  }

  /// Scans the retire list against a snapshot of the live reservations,
  /// freeing every entry no reservation covers. Callers need no
  /// exclusion (the list lock serializes concurrent scans), but the
  /// normal caller is the structure's (write-locked) retire path.
  RetireResult scan() {
    const std::uint64_t t0 = scan_clock_ns();
    RCUA_SCHED_POINT("era.scan");
    RetireResult out;
    std::vector<Retired> freeable;
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      out.era = era_.value.load(std::memory_order_seq_cst);
      scratch_.clear();
      std::uint64_t min_upper = kIdleEra;
      for (std::size_t s = 0; s < nslots_; ++s) {
        if (slots_[s].claimed.load(std::memory_order_acquire) == 0) continue;
        const std::uint64_t hi =
            slots_[s].upper.load(std::memory_order_seq_cst);
        const std::uint64_t lo =
            slots_[s].lower.load(std::memory_order_seq_cst);
        // A claimed slot with no published upper bound is a reader still
        // inside protect(): it holds nothing yet, and anything retired
        // before its publish was unpublished first, so its eventual load
        // cannot return it. Safe to skip.
        if (hi == kIdleEra) continue;
        scratch_.push_back({lo == kIdleEra ? hi : lo, hi});
        if (hi < min_upper) {
          min_upper = hi;
          out.laggard_slot = s;
        }
        if (hi < out.era) ++out.stale_reservations;
      }
      if (min_upper != kIdleEra && out.era > min_upper) {
        out.reservation_lag = out.era - min_upper;
      }
      for (std::size_t i = 0; i < list_.size();) {
        const Retired& e = list_[i];
        bool blocked = false;
        for (const Interval& r : scratch_) {
          // Lifetime [b, r] overlaps reservation [lo, hi]. Inclusive on
          // both ends: a protect and a retire can share one era, and
          // equality must block (header comment).
          if (r.lower <= e.retire_era && e.birth_era <= r.upper) {
            blocked = true;
            break;
          }
        }
        if (blocked) {
          ++i;
          continue;
        }
        freeable.push_back(e);
        list_[i] = list_.back();
        list_.pop_back();
      }
    }
    // Deleters run outside the lock (they may be arbitrarily heavy).
    for (const Retired& e : freeable) {
      e.deleter(e.obj);
      out.freed_objects += 1;
      out.freed_bytes += e.bytes;
    }
    if (out.freed_objects != 0) {
      freed_.value.fetch_add(out.freed_objects, std::memory_order_relaxed);
      pending_objects_.value.fetch_sub(out.freed_objects,
                                       std::memory_order_relaxed);
      pending_bytes_.value.fetch_sub(out.freed_bytes,
                                     std::memory_order_relaxed);
    }
    scans_.value.fetch_add(1, std::memory_order_relaxed);
    sim::charge(sim::CostModel::get().atomic_load_ns *
                static_cast<double>(nslots_));
    obs::health::era_scan_ns().record(scan_clock_ns() - t0);
    out.pending_objects =
        pending_objects_.value.load(std::memory_order_relaxed);
    out.pending_bytes = pending_bytes_.value.load(std::memory_order_relaxed);
    return out;
  }

  // -- Fence waits (resize_remove's blocking path) -----------------------

  /// Live reservations whose ENTRY era is below `fence` — read sections
  /// that began before the event the fence era was minted after. Keyed
  /// on the lower bound, not the upper: an IBR section that entered
  /// pre-fence may still hold its first-protected pointer even after
  /// later protects extended its upper bound past the fence. (For
  /// hazard eras lower == upper, so the two are the same check.)
  [[nodiscard]] std::uint64_t readers_below(std::uint64_t fence) const
      noexcept {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < nslots_; ++s) {
      if (entry_era(s) < fence) ++n;
    }
    return n;
  }

  /// Blocks until no reservation predates `fence` (mint the fence with
  /// advance_era() AFTER unpublishing). Used by RCUArray::resize_remove,
  /// whose dropped blocks are shared across locales and therefore cannot
  /// ride the per-locale retire lists — the one deliberately blocking
  /// path, mirroring the EBR behaviour documented in DESIGN.md §8.
  void wait_for_readers(std::uint64_t fence) noexcept {
    obs::TraceSpan span("rcu.drain_wait", "rcu");
    const std::uint64_t t0 = scan_clock_ns();
    plat::wait_until("era.wait_for_readers",
                     [&] { return readers_below(fence) == 0; });
    sim::charge(sim::CostModel::get().epoch_drain_ns);
    obs::health::grace_ns().record(scan_clock_ns() - t0);
  }

  /// Frees the whole retire list unconditionally. ONLY safe under
  /// external quiescence (destructor / teardown).
  RetireResult flush_unsafe() {
    RetireResult out;
    std::vector<Retired> all;
    {
      std::lock_guard<plat::Spinlock> guard(lock_);
      all.swap(list_);
    }
    for (const Retired& e : all) {
      e.deleter(e.obj);
      out.freed_objects += 1;
      out.freed_bytes += e.bytes;
    }
    if (out.freed_objects != 0) {
      freed_.value.fetch_add(out.freed_objects, std::memory_order_relaxed);
      pending_objects_.value.fetch_sub(out.freed_objects,
                                       std::memory_order_relaxed);
      pending_bytes_.value.fetch_sub(out.freed_bytes,
                                     std::memory_order_relaxed);
    }
    return out;
  }

  // -- Introspection -----------------------------------------------------

  [[nodiscard]] std::size_t pending_objects() const noexcept {
    return pending_objects_.value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_bytes_.value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t slot_count() const noexcept { return nslots_; }

  /// Currently claimed slots holding a published reservation.
  [[nodiscard]] std::uint64_t active_reservations() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < nslots_; ++s) {
      if (slots_[s].claimed.load(std::memory_order_acquire) != 0 &&
          slots_[s].upper.load(std::memory_order_seq_cst) != kIdleEra) {
        ++n;
      }
    }
    return n;
  }

  /// One slot's published reservation, kIdleEra-pairs when idle (tests).
  struct Reservation {
    std::uint64_t lower = kIdleEra;
    std::uint64_t upper = kIdleEra;
  };
  [[nodiscard]] Reservation reservation_at(std::size_t slot) const noexcept {
    const Slot& s = slots_[slot & slot_mask_];
    return {s.lower.load(std::memory_order_seq_cst),
            s.upper.load(std::memory_order_seq_cst)};
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
#if RCUA_ERA_STATS
    for (std::size_t i = 0; i < nslots_; ++i) {
      s.reads += slot_stats_[i].reads.load(std::memory_order_relaxed);
      s.read_retries +=
          slot_stats_[i].retries.load(std::memory_order_relaxed);
    }
#endif
    s.epoch_advances = era_advances_.value.load(std::memory_order_relaxed);
    s.era_scans = scans_.value.load(std::memory_order_relaxed);
    s.retired = retired_.value.load(std::memory_order_relaxed);
    s.freed = freed_.value.load(std::memory_order_relaxed);
    s.pending_objects =
        pending_objects_.value.load(std::memory_order_relaxed);
    s.pending_bytes = pending_bytes_.value.load(std::memory_order_relaxed);
    s.pending_bytes_hwm =
        pending_bytes_hwm_.value.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct alignas(plat::kCacheLine) Slot {
    std::atomic<std::uint64_t> lower{kIdleEra};
    std::atomic<std::uint64_t> upper{kIdleEra};
    std::atomic<std::uint32_t> claimed{0};
  };
#if RCUA_ERA_STATS
  struct alignas(plat::kCacheLine) SlotStats {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> retries{0};
  };
#endif
  struct Retired {
    void (*deleter)(void*);
    void* obj;
    std::size_t bytes;
    std::uint64_t birth_era;
    std::uint64_t retire_era;
  };
  struct Interval {
    std::uint64_t lower;
    std::uint64_t upper;
  };

  static constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 1;
    while (p < n && p < 512) p <<= 1;
    return p < 2 ? 2 : p;
  }

  /// Scan/grace timestamps follow the trace-layer convention: virtual
  /// time when a TaskClock is attached, wall time otherwise.
  [[nodiscard]] static std::uint64_t scan_clock_ns() noexcept {
    return sim::enabled() ? sim::now_v() : plat::now_ns();
  }

  /// Slot `s`'s section-entry era: the published lower bound, falling
  /// back to the upper (mid-publish), kIdleEra when the slot holds no
  /// reservation. A mid-protect claimant with both bounds idle holds
  /// nothing (its load has not happened under a reservation yet).
  [[nodiscard]] std::uint64_t entry_era(std::size_t s) const noexcept {
    if (slots_[s].claimed.load(std::memory_order_acquire) == 0) {
      return kIdleEra;
    }
    const std::uint64_t lo = slots_[s].lower.load(std::memory_order_seq_cst);
    if (lo != kIdleEra) return lo;
    return slots_[s].upper.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] std::size_t preferred_slot() const noexcept {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
    // Under the deterministic scheduler the choice must be a function of
    // the logical task, or seeds would not replay.
    if (testing::sched_task_active()) {
      return testing::sched_task_id() & slot_mask_;
    }
#endif
    if (test_slot_override >= 0) {
      return static_cast<std::size_t>(test_slot_override) & slot_mask_;
    }
    return plat::stripe_index(nslots_);
  }

  std::size_t claim_slot() {
    const std::size_t start = preferred_slot();
    for (;;) {
      for (std::size_t i = 0; i < nslots_; ++i) {
        const std::size_t idx = (start + i) & slot_mask_;
        std::uint32_t expect = 0;
        if (slots_[idx].claimed.compare_exchange_strong(
                expect, 1, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          charge_slot_rmw(idx);
          RCUA_SCHED_POINT("era.slot.claimed");
          return idx;
        }
      }
      // Every slot claimed: the domain is at its concurrent-reader bound.
      plat::wait_until("era.slot.wait", [&] {
        for (std::size_t s = 0; s < nslots_; ++s) {
          if (slots_[s].claimed.load(std::memory_order_acquire) == 0) {
            return true;
          }
        }
        return false;
      });
    }
  }

  void release_slot(std::size_t idx) noexcept {
    Slot& s = slots_[idx];
    s.lower.store(kIdleEra, std::memory_order_seq_cst);
    s.upper.store(kIdleEra, std::memory_order_seq_cst);
    s.claimed.store(0, std::memory_order_release);
    charge_slot_rmw(idx);
  }

  void charge_slot_rmw(std::size_t idx) noexcept {
    // A claimed slot is reader-private: publishes are almost always
    // uncontended owned-line RMWs; only the writer's scan racing in
    // transfers the line.
    const auto& m = sim::CostModel::get();
    reservation_lines_[idx].use_owned(m.rmw_transfer_ns, m.atomic_rmw_ns);
  }

  void note_pending_hwm(std::size_t now_bytes) noexcept {
    std::size_t peak =
        pending_bytes_hwm_.value.load(std::memory_order_relaxed);
    while (now_bytes > peak &&
           !pending_bytes_hwm_.value.compare_exchange_weak(
               peak, now_bytes, std::memory_order_relaxed)) {
    }
    unreclaimed_gauge_->update_max(now_bytes);
  }

  void count_read(std::size_t slot) noexcept {
#if RCUA_ERA_STATS
    slot_stats_[slot].reads.fetch_add(1, std::memory_order_relaxed);
#else
    (void)slot;
#endif
  }
  void count_retry(std::size_t slot) noexcept {
#if RCUA_ERA_STATS
    slot_stats_[slot].retries.fetch_add(1, std::memory_order_relaxed);
#else
    (void)slot;
#endif
  }

  std::size_t nslots_;
  std::size_t slot_mask_;
  std::unique_ptr<Slot[]> slots_;
  // Virtual-time contention model, one line per reservation slot.
  std::unique_ptr<sim::VirtualResource[]> reservation_lines_;
#if RCUA_ERA_STATS
  std::unique_ptr<SlotStats[]> slot_stats_;
#endif
  obs::Gauge* unreclaimed_gauge_;
  plat::CacheAligned<std::atomic<std::uint64_t>> era_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> era_advances_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> scans_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> retired_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> freed_{0ULL};
  plat::CacheAligned<std::atomic<std::size_t>> pending_objects_{};
  plat::CacheAligned<std::atomic<std::size_t>> pending_bytes_{};
  plat::CacheAligned<std::atomic<std::size_t>> pending_bytes_hwm_{};
  mutable plat::Spinlock lock_;
  std::vector<Retired> list_;     // guarded by lock_
  std::vector<Interval> scratch_;  // guarded by lock_ (scan reuse)
};

/// Interval-based reclamation: reservations are [entry era, current era]
/// intervals; the lower bound pins at the section's first protect.
using Ibr = BasicEraReclaimer<IbrReservations>;
/// Hazard eras: reservations are a single (republished) era value.
using HazardEras = BasicEraReclaimer<HazardEraReservations>;

}  // namespace rcua::reclaim
