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
//  * Every thread publishes into its own padded **reservation slot**, the
//    one its reader index selects in the domain's plat::ReaderBank, through
//    `ReadGuard::protect()`, a publish-then-reverify loop:
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
//  * `retire()` pushes onto the domain's RetireList (retire_list.hpp),
//    tagged with the lifetime, and sweeps it against the live
//    reservations: an entry [b, r] stays **blocked** while some
//    reservation [lo, hi] satisfies `lo <= r && b <= hi`; everything
//    else is freed immediately. No grace-period wait exists on this
//    path — where EBR's writer blocks (or defers onto the bytes-budgeted
//    overflow list), an era writer always completes its retire in
//    O(reader indices + pending) and moves on. No reader waits either:
//    its slot is its own.
//  * A section nested in another on the same domain (same thread) shares
//    the slot: it keeps the outer section's lower bound, raises only the
//    upper, and restores the outer reservation when it ends. Sections on
//    one domain therefore end in the reverse order they began on a
//    thread, which RAII scopes give, and under hazard eras an enclosing
//    section does not protect() again while a nested one is live (its
//    republish would raise the shared lower bound past what the nested
//    section protects).
//
// The two schemes differ only in what a reservation holds:
//
//  * **IBR** (`kPinLower = true`): the slot holds a real interval — the
//    lower bound is pinned by the section's first protect to return
//    (its retries republish it, since they hold nothing yet) and only the
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
#include <vector>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/timing.hpp"
#include "platform/topology.hpp"
#include "reclaim/retire_list.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

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
  /// Reader index of the reservation setting the lag (SIZE_MAX = none).
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
  struct Slot;  // declared below; named in ReadGuard's members

 public:
  /// Sentinel era meaning "slot holds no reservation".
  static constexpr std::uint64_t kIdleEra = UINT64_MAX;
  static constexpr bool kPinLower = Shape::kPinLower;

  BasicEraReclaimer() : BasicEraReclaimer(0) {}
  explicit BasicEraReclaimer(std::uint64_t initial_era)
      : unreclaimed_gauge_(
            &obs::health::unreclaimed_bytes_hwm(Shape::kPolicyTag)) {
    era_.value.store(initial_era, std::memory_order_relaxed);
  }
  BasicEraReclaimer(const BasicEraReclaimer&) = delete;
  BasicEraReclaimer& operator=(const BasicEraReclaimer&) = delete;

  /// Observability counters. `reads`/`read_retries` are kept in the
  /// reader slots; everything else is write-side.
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

  /// One slot's published reservation, kIdleEra-pairs when idle.
  struct Reservation {
    std::uint64_t lower = kIdleEra;
    std::uint64_t upper = kIdleEra;
  };

  /// RAII read-side critical section on the calling thread's own
  /// reservation slot. `protect()` publishes era reservations and returns
  /// a pointer guaranteed not to be reclaimed while the guard lives;
  /// destruction restores the reservation the slot held at construction:
  /// idle, or an enclosing section's on this domain.
  class ReadGuard {
   public:
    explicit ReadGuard(BasicEraReclaimer& dom)
        : dom_(dom),
          slot_(dom.bank_.mine()),
          outer_{slot_.lower.load(std::memory_order_relaxed),
                 slot_.upper.load(std::memory_order_relaxed)} {
      obs::trace_event("rcu.read_section", "rcu", 'B');
    }
    ~ReadGuard() {
      RCUA_SCHED_POINT("era.guard.leave");
      obs::trace_event("rcu.read_section", "rcu", 'E');
      slot_.lower.store(outer_.lower, std::memory_order_seq_cst);
      slot_.upper.store(outer_.upper, std::memory_order_seq_cst);
      sim::charge(sim::CostModel::get().atomic_rmw_ns);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// Loads a pointer from `src` under a published era reservation (the
    /// publish-then-reverify loop in the header comment). The returned
    /// object — and, transitively, anything whose era lifetime encloses
    /// its own, e.g. the blocks under an RCUArray spine — stays
    /// unreclaimed until the guard dies. May be called more than once
    /// per section; under IBR the reservation's lower bound stays pinned
    /// at the era the first protect returned under.
    template <typename P>
    [[nodiscard]] P* protect(const std::atomic<P*>& src) {
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
      if constexpr (Shape::kPinLower) {
        if (RCUA_SCHED_MUT(ibr_reserve_after_load)) {
          // MUTATION: load first, then reserve what was seen — no
          // reverify. Between the load and the publish a writer's
          // retire+scan observes no reservation and frees the loaded
          // object (tests/test_sched_eras.cpp).
          P* p = src.load(std::memory_order_seq_cst);
          RCUA_SCHED_POINT("era.protect.load_unreserved");
          publish(dom_.era_.value.load(std::memory_order_seq_cst));
          published_ = true;
          count_stat(/*retry=*/false);
          return p;
        }
      }
#endif
      std::uint64_t e = dom_.era_.value.load(std::memory_order_seq_cst);
      for (;;) {
        publish(e);
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
              slot_.lower.store(kIdleEra, std::memory_order_seq_cst);
              slot_.upper.store(kIdleEra, std::memory_order_seq_cst);
              RCUA_SCHED_POINT("era.protect.cleared_early");
            }
          }
#endif
          published_ = true;
          count_stat(/*retry=*/false);
          return p;
        }
        e = now;
        count_stat(/*retry=*/true);
      }
    }

   private:
    /// Publishes the reservation [lower, e]. The lower bound is the era
    /// of the section's first successful protect under IBR and `e`
    /// itself under hazard eras; a section nested in another on this
    /// domain keeps the outer section's, so everything the outer one
    /// protects stays covered. Until a protect returns, the section holds
    /// nothing, so a retry of its first protect republishes the lower
    /// bound too (DESIGN.md §13). seq_cst stores: the reverify load must
    /// not pass them.
    void publish(std::uint64_t e) noexcept {
      if (outer_.lower == kIdleEra && !(Shape::kPinLower && published_)) {
        slot_.lower.store(e, std::memory_order_seq_cst);
      }
      slot_.upper.store(e, std::memory_order_seq_cst);
      sim::charge(sim::CostModel::get().atomic_rmw_ns);
    }

    void count_stat(bool retry) noexcept {
      std::atomic<std::uint64_t>& c = retry ? slot_.retries : slot_.reads;
      c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    }

    BasicEraReclaimer& dom_;
    Slot& slot_;
    /// The reservation to restore: an enclosing section's, or idle.
    const Reservation outer_;
    /// Set once a protect has returned a pointer: from then on IBR keeps
    /// the lower bound.
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
  /// live reservations. NEVER waits on readers: where EBR's writer drains
  /// a parity column, this returns in O(reader indices + pending) with
  /// everything unblocked freed and the blocked remainder carried as
  /// pending (the bounded-by-construction contract).
  RetireResult retire(void (*deleter)(void*), void* obj, std::size_t bytes,
                      std::uint64_t birth_era) {
    const Interval lifetime{birth_era,
                            era_.value.load(std::memory_order_seq_cst)};
    note_pending_hwm(retire_list_.push(deleter, obj, bytes, lifetime));
    retired_.value.fetch_add(1, std::memory_order_relaxed);
    RCUA_SCHED_POINT("era.retire");
    advance_era();
    return scan();
  }

  /// Sweeps the retire list against a snapshot of the live
  /// reservations, freeing every entry no reservation covers. Callers
  /// need no exclusion (the list lock serializes concurrent scans), but
  /// the normal caller is the structure's (write-locked) retire path.
  RetireResult scan() {
    const std::uint64_t t0 = scan_clock_ns();
    RCUA_SCHED_POINT("era.scan");
    RetireResult out;
    std::uint64_t min_upper = kIdleEra;
    const Freed freed = retire_list_.sweep(
        [&] {
          // Orders every unpublish that precedes a retire on this list
          // before the slot scan, so the scan sees each reservation that
          // was published before it (DESIGN.md §13).
          std::atomic_thread_fence(std::memory_order_seq_cst);
          out.era = era_.value.load(std::memory_order_seq_cst);
          scratch_.clear();
          bank_.for_each([&](std::size_t index, const Slot& s) {
            const std::uint64_t hi = s.upper.load(std::memory_order_seq_cst);
            // An idle upper bound is an idle slot or a reader still
            // before its first publish: it holds nothing yet, and
            // anything retired before its publish was unpublished first,
            // so its eventual load cannot return it. Safe to skip.
            if (hi == kIdleEra) return;
            const std::uint64_t lo = s.lower.load(std::memory_order_seq_cst);
            scratch_.push_back({lo == kIdleEra ? hi : lo, hi});
            if (hi < min_upper) {
              min_upper = hi;
              out.laggard_slot = index;
            }
            if (hi < out.era) ++out.stale_reservations;
          });
        },
        [&](const Interval& lifetime) {
          for (const Interval& r : scratch_) {
            // Lifetime [b, r] overlaps reservation [lo, hi]. Inclusive on
            // both ends: a protect and a retire can share one era, and
            // equality must block (header comment).
            if (r.lower <= lifetime.upper && lifetime.lower <= r.upper) {
              return false;
            }
          }
          return true;
        });
    if (min_upper != kIdleEra && out.era > min_upper) {
      out.reservation_lag = out.era - min_upper;
    }
    out.freed_objects = freed.objects;
    out.freed_bytes = freed.bytes;
    freed_.value.fetch_add(freed.objects, std::memory_order_relaxed);
    scans_.value.fetch_add(1, std::memory_order_relaxed);
    // Flat, like EBR's drain charge: a scan's virtual cost must not
    // depend on how many threads the process has run.
    sim::charge(sim::CostModel::get().atomic_load_ns);
    obs::health::era_scan_ns().record(scan_clock_ns() - t0);
    out.pending_objects = retire_list_.pending_objects();
    out.pending_bytes = retire_list_.pending_bytes();
    return out;
  }

  // -- Fence waits (resize_remove's blocking path) -----------------------

  /// Live reservations whose ENTRY era is below `fence` — read sections
  /// that began before the event the fence era was minted after. Keyed
  /// on the lower bound, not the upper: an IBR section that entered
  /// pre-fence may still hold its first-protected pointer even after
  /// later protects extended its upper bound past the fence. (For
  /// hazard eras lower == upper outside nesting, so the two are the same
  /// check.)
  [[nodiscard]] std::uint64_t readers_below(std::uint64_t fence) const
      noexcept {
    std::uint64_t n = 0;
    bank_.for_each([&](std::size_t, const Slot& s) {
      if (entry_era(s) < fence) ++n;
    });
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
    // As in scan(): the slot loads must not be satisfied before the fence
    // era's advance is visible (DESIGN.md §13).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    plat::wait_until("era.wait_for_readers",
                     [&] { return readers_below(fence) == 0; });
    sim::charge(sim::CostModel::get().epoch_drain_ns);
    obs::health::grace_ns().record(scan_clock_ns() - t0);
  }

  /// Frees the whole retire list unconditionally. ONLY safe under
  /// external quiescence (teardown; the list's destructor does the
  /// same).
  RetireResult flush_unsafe() {
    const Freed freed = retire_list_.free_all();
    freed_.value.fetch_add(freed.objects, std::memory_order_relaxed);
    RetireResult out;
    out.freed_objects = freed.objects;
    out.freed_bytes = freed.bytes;
    return out;
  }

  // -- Introspection -----------------------------------------------------

  [[nodiscard]] std::size_t pending_objects() const noexcept {
    return retire_list_.pending_objects();
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return retire_list_.pending_bytes();
  }

  /// Slots holding a published reservation.
  [[nodiscard]] std::uint64_t active_reservations() const noexcept {
    std::uint64_t n = 0;
    bank_.for_each([&](std::size_t, const Slot& s) {
      if (s.upper.load(std::memory_order_seq_cst) != kIdleEra) ++n;
    });
    return n;
  }

  /// The reservation in reader index `index`'s slot (tests).
  [[nodiscard]] Reservation reservation_at(std::size_t index) const noexcept {
    const Slot* s = bank_.find(index);
    if (s == nullptr) return {};
    return {s->lower.load(std::memory_order_seq_cst),
            s->upper.load(std::memory_order_seq_cst)};
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    bank_.for_each([&](std::size_t, const Slot& r) {
      s.reads += r.reads.load(std::memory_order_relaxed);
      s.read_retries += r.retries.load(std::memory_order_relaxed);
    });
    s.epoch_advances = era_advances_.value.load(std::memory_order_relaxed);
    s.era_scans = scans_.value.load(std::memory_order_relaxed);
    s.retired = retired_.value.load(std::memory_order_relaxed);
    s.freed = freed_.value.load(std::memory_order_relaxed);
    s.pending_objects = retire_list_.pending_objects();
    s.pending_bytes = retire_list_.pending_bytes();
    s.pending_bytes_hwm =
        pending_bytes_hwm_.value.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// One reader index's reservation, written only by its owner.
  struct alignas(plat::kCacheLine) Slot {
    std::atomic<std::uint64_t> lower{kIdleEra};
    std::atomic<std::uint64_t> upper{kIdleEra};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> retries{0};
  };
  /// A closed era interval: a live reservation [lo, hi], or a retired
  /// object's [birth, retire] lifetime, its retire-list tag.
  struct Interval {
    std::uint64_t lower;
    std::uint64_t upper;
  };

  /// Scan/grace timestamps follow the trace-layer convention: virtual
  /// time when a TaskClock is attached, wall time otherwise.
  [[nodiscard]] static std::uint64_t scan_clock_ns() noexcept {
    return sim::enabled() ? sim::now_v() : plat::now_ns();
  }

  /// A slot's section-entry era: the published lower bound, falling back
  /// to the upper, kIdleEra when the slot holds no reservation.
  [[nodiscard]] static std::uint64_t entry_era(const Slot& s) noexcept {
    const std::uint64_t lo = s.lower.load(std::memory_order_seq_cst);
    if (lo != kIdleEra) return lo;
    return s.upper.load(std::memory_order_seq_cst);
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

  plat::ReaderBank<Slot> bank_;
  obs::Gauge* unreclaimed_gauge_;
  plat::CacheAligned<std::atomic<std::uint64_t>> era_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> era_advances_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> scans_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> retired_{0ULL};
  plat::CacheAligned<std::atomic<std::uint64_t>> freed_{0ULL};
  plat::CacheAligned<std::atomic<std::size_t>> pending_bytes_hwm_{};
  RetireList<Interval> retire_list_;
  /// The live reservations a scan observed; written only in a sweep's
  /// observe step, so guarded by the retire list's lock.
  std::vector<Interval> scratch_;
};

/// Interval-based reclamation: reservations are [entry era, current era]
/// intervals; the lower bound pins at the section's first protect to
/// return.
using Ibr = BasicEraReclaimer<IbrReservations>;
/// Hazard eras: reservations are a single (republished) era value.
using HazardEras = BasicEraReclaimer<HazardEraReservations>;

}  // namespace rcua::reclaim
