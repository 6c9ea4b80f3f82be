#pragma once

// The reclamation policies — the paper's `isQSBR` parameter, widened to
// five schemes. Each policy is the per-locale reclaimer RCUArray and
// ShardedCollection keep on every locale, and both structures write each
// protocol once against its interface; none of them branches on the
// policy. The model is Brown's record manager (arXiv 1712.01044): the
// structure knows start-op / protect / retire, never the scheme behind.
//
// Read side, one RAII section per policy (ReadSection<Policy>):
//
//              enter                  pin              exit
//   QSBR       ensure_participant     acquire load     -
//   EBR        announce               acquire load     retract
//   IBR / HE   find the own slot      protect()        restore the slot
//
// Write side; the caller holds the structure's write lock and has just
// published the replacement on this locale:
//
//   retire_spine(old, bytes, site, drain_follows)  hand over the old spine
//   drain(held)     blocking per-locale drain, then free `held`
//   free(obj)       free memory every locale has already drained
//
// QSBR never waits: its retirements are deferrals.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/eras.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

/// Where a retirement is accounted: the retiring locale's memory ledger
/// and the structure's watchdog, deadline policy and deferral counter.
struct RetireSite {
  rt::Locale& locale;
  StallMonitor& monitor;
  const StallPolicy& stall_policy;
  std::atomic<std::uint64_t>& stalled_spines;
};

/// Retired-but-unreclaimed memory of one locale.
struct Pending {
  std::size_t objects = 0;
  std::size_t bytes = 0;
};

template <typename O>
void delete_as(void* p) {
  delete static_cast<O*>(p);
}

/// The RAII read section of `Policy` (enter, pin, exit at scope end).
template <typename Policy>
using ReadSection = typename Policy::Section;

/// QSBR (Algorithm 2): a reader only has to be a participant, and every
/// retirement is a deferral the domain's checkpoints reclaim, so a locale
/// holds nothing but the domain pointer.
class QsbrDomain {
 public:
  static constexpr bool is_qsbr = true;
  static constexpr bool is_interval = false;
  static constexpr const char* name = "QSBR";

  explicit QsbrDomain(Qsbr& qsbr) noexcept : qsbr_(&qsbr) {}

  class Section {
   public:
    explicit Section(QsbrDomain& d) { d.qsbr_->ensure_participant(); }
    template <typename P>
    [[nodiscard]] P* pin(const std::atomic<P*>& src) const noexcept {
      return src.load(std::memory_order_acquire);
    }
  };

  template <typename S>
  S* retire_spine(S* old, std::size_t, const RetireSite&, bool) {
    qsbr_->defer_delete(old);
    return nullptr;
  }
  template <typename O>
  void drain(O* held, const char* = nullptr, const char* = nullptr) {
    if (held != nullptr) qsbr_->defer_delete(held);
  }
  template <typename O>
  void free(O* obj) {
    qsbr_->defer_delete(obj);
  }
  void flush(const RetireSite&) noexcept {}
  void flush_unsafe(const RetireSite&) noexcept {}
  [[nodiscard]] Pending pending() const noexcept { return {}; }
  /// QSBR keeps no EBR read counters, so every count is zero; its
  /// per-thread state is in the Qsbr domain's own bank.
  [[nodiscard]] Ebr::Stats stats() const noexcept { return {}; }

 private:
  Qsbr* qsbr_;
};

/// EBR (Algorithm 1) over the owned or the paper's legacy reader bank,
/// plus the overflow list for spines whose stall-bounded drain timed out
/// (DESIGN.md §8).
template <typename E>
class EbrDomain {
 public:
  static constexpr bool is_qsbr = false;
  static constexpr bool is_interval = false;
  static constexpr const char* name =
      E::kOwnedLayout ? "EBR" : "EBR-legacy";

  explicit EbrDomain(Qsbr&) {}

  class Section {
   public:
    explicit Section(EbrDomain& d) : guard_(d.ebr_) {}
    template <typename P>
    [[nodiscard]] P* pin(const std::atomic<P*>& src) const noexcept {
      return src.load(std::memory_order_acquire);
    }

   private:
    typename E::ReadGuard guard_;
  };

  /// Spine retirement with stall tolerance (RCU_Write lines 5-8,
  /// deadline-bounded): frees `old` when the drain completes, else defers
  /// it onto the overflow list (bytes accounted on the locale and against
  /// the watchdog budget). A deferral that would breach the budget blocks
  /// instead. With `drain_follows`, `old` is returned for that blocking
  /// drain to free instead.
  template <typename S>
  S* retire_spine(S* old, std::size_t bytes, const RetireSite& site,
                  bool drain_follows) {
    if (drain_follows) return old;
    const auto epoch = ebr_.advance_epoch();
    RCUA_SCHED_POINT("rcua.resize.epoch_bumped");
    const DrainResult drain =
        ebr_.wait_for_readers(epoch, site.stall_policy.deadline_ns);
    // The drained fast path is only sound while the overflow list is
    // empty: a pending entry means an earlier grace period on this
    // domain never completed, so a reader announced on the *other*
    // parity may have loaded `old` before this resize unpublished it
    // (DESIGN.md §8). With entries pending, `old` joins the overflow
    // list and waits for both columns like everything else.
    if (drain.drained && overflow_.pending_objects() == 0) {
      reclaimed(old, site);
      return nullptr;
    }
    StallDiagnostic diag;
    diag.kind = StallDiagnostic::Kind::kEbrReader;
    diag.domain = &ebr_;
    diag.locale = site.locale.id();
    diag.epoch = static_cast<std::uint64_t>(epoch);
    diag.slot = drain.stuck_slot;
    diag.thread_id = drain.stuck_thread;
    diag.stuck_readers = drain.stuck_readers;
    diag.waited_ns = drain.waited_ns;
    // Only an expired deadline is a stall; a drained-but-deferred spine
    // (premise broken by an earlier stall) is bookkeeping, not news.
    if (!drain.drained) site.monitor.record_stall(diag);
    if (site.monitor.would_exceed(bytes)) {
      // Hard memory bound: refuse the overflow and pay the blocking
      // drain instead — memory stays bounded, resize latency degrades.
      // Two grace periods, this column's and then the other's, outlast
      // every reader that can still hold `old` or a deferred spine, so
      // both go, and the fast-path premise holds again.
      site.monitor.escalate(diag);
      ebr_.wait_for_readers(epoch);
      ebr_.wait_for_readers(ebr_.advance_epoch());
      flush_unsafe(site);
      reclaimed(old, site);
      return nullptr;
    }
    site.stalled_spines.fetch_add(1, std::memory_order_relaxed);
    site.monitor.note_overflow(bytes);
    site.locale.note_alloc(bytes);
    overflow_.push(&delete_as<S>, old, bytes,
                   static_cast<std::uint64_t>(epoch));
    RCUA_SCHED_POINT("rcua.resize.overflow_spine");
    return nullptr;
  }

  template <typename O>
  void drain(O* held, const char* bumped = nullptr,
             const char* drained = nullptr) {
    const auto epoch = ebr_.advance_epoch();
    if (bumped != nullptr) RCUA_SCHED_POINT(bumped);
    ebr_.wait_for_readers(epoch);
    if (drained != nullptr) RCUA_SCHED_POINT(drained);
    delete held;
  }

  template <typename O>
  void free(O* obj) {
    delete obj;
  }

  /// Frees the deferred spines that have seen both reader columns empty
  /// since deferral (the "retry reclamation opportunistically" half of
  /// the watchdog design).
  void flush(const RetireSite& site) {
    if (overflow_.pending_objects() == 0) return;
    note_flushed(site, overflow_.flush_ready([&](std::size_t parity) {
      return ebr_.readers_at(parity) == 0;
    }));
  }
  /// Frees every deferred spine: only under external quiescence
  /// (teardown) or after two grace periods (the budget-breach path).
  void flush_unsafe(const RetireSite& site) {
    note_flushed(site, overflow_.free_all());
  }
  [[nodiscard]] Pending pending() const noexcept {
    return {overflow_.pending_objects(), overflow_.pending_bytes()};
  }
  [[nodiscard]] typename E::Stats stats() const noexcept {
    return ebr_.stats();
  }

 private:
  template <typename S>
  static void reclaimed(S* old, const RetireSite& site) {
    RCUA_SCHED_POINT("rcua.resize.retire_spine");
    obs::trace_instant("rcua.resize.reclaim", "rcua", site.locale.id());
    delete old;
  }

  static void note_flushed(const RetireSite& site,
                           OverflowRetireList::FlushResult flushed) {
    if (flushed.objects == 0) return;
    site.locale.note_free(flushed.bytes);
    site.monitor.note_flushed(flushed.bytes, flushed.objects);
  }

  E ebr_;
  /// Spines whose grace-period drain timed out, parked until both reader
  /// columns have been observed empty since the push. Per-locale is
  /// sufficient: a spine on locale l is only ever dereferenced under
  /// locale l's EBR instance (the snapshot pointer is privatized).
  OverflowRetireList overflow_;
};

/// Interval-based reclamation and hazard eras (DESIGN.md §13): retired
/// spines carry [birth, retire] era tags and a scan frees every one no
/// live reservation overlaps, so retirement never waits on a reader and
/// the pending set stays bounded without an overflow list.
template <typename E>
class EraDomain {
 public:
  static constexpr bool is_qsbr = false;
  static constexpr bool is_interval = true;
  static constexpr const char* name = E::kPinLower ? "IBR" : "HE";
  /// Reservation lag (in eras) from which a retire reports the stalled
  /// reader to the watchdog, as a purely diagnostic kEraReservation.
  static constexpr std::uint64_t kStallLagThreshold = 3;

  explicit EraDomain(Qsbr&) {}

  class Section {
   public:
    explicit Section(EraDomain& d) : guard_(d.era_) {}
    /// The protect loop IS the load: the reservation it publishes keeps
    /// the pinned object pending until the section ends.
    template <typename P>
    [[nodiscard]] P* pin(const std::atomic<P*>& src) {
      return guard_.protect(src);
    }

   private:
    typename E::ReadGuard guard_;
  };

  /// Stamps `old` with [its birth, now] and scans. A stalled reservation
  /// is a fixed interval, so it keeps at most the spines whose lifetime
  /// overlaps it pending (≤ 2 per locale however many resizes run past
  /// it) — the bound holds by construction, with no budget to escalate.
  template <typename S>
  S* retire_spine(S* old, std::size_t bytes, const RetireSite& site, bool) {
    // The replacement spine is born now. The era cannot have moved since
    // its publish: only this structure's writers advance it, and they
    // hold the write lock. So any reader that can load the replacement
    // holds a reservation at or above this birth (the Lemma 6
    // generalization, DESIGN.md §13).
    const std::uint64_t birth =
        std::exchange(spine_birth_era_, era_.current_era());
    const RetireResult res = era_.retire(&delete_as<S>, old, bytes, birth);
    scan_owed_ = true;
    obs::trace_instant("rcua.resize.reclaim", "rcua", site.locale.id());
    if (res.pending_objects > 0 &&
        res.reservation_lag >= kStallLagThreshold) {
      obs::health::epoch_lag().update_max(res.reservation_lag);
      StallDiagnostic diag;
      diag.kind = StallDiagnostic::Kind::kEraReservation;
      diag.domain = &era_;
      diag.locale = site.locale.id();
      diag.epoch = res.era;
      diag.slot = res.laggard_slot;
      diag.thread_id = plat::reader_thread_id(res.laggard_slot);
      diag.era_lag = res.reservation_lag;
      diag.overflow_bytes = res.pending_bytes;
      site.monitor.record_stall(diag);
    }
    return nullptr;
  }

  /// Mints a fence era and waits out every section that entered before
  /// it; then the scan frees the spines retired since the last drain.
  template <typename O>
  void drain(O* held, const char* bumped = nullptr,
             const char* drained = nullptr) {
    const std::uint64_t fence = era_.advance_era();
    if (bumped != nullptr) RCUA_SCHED_POINT(bumped);
    era_.wait_for_readers(fence);
    if (drained != nullptr) RCUA_SCHED_POINT(drained);
    if (std::exchange(scan_owed_, false)) era_.scan();
    delete held;
  }

  template <typename O>
  void free(O* obj) {
    delete obj;
  }

  /// The retry of the pending spines is simply another scan.
  void flush(const RetireSite&) {
    if (era_.pending_objects() != 0) era_.scan();
  }
  void flush_unsafe(const RetireSite&) { era_.flush_unsafe(); }
  [[nodiscard]] Pending pending() const noexcept {
    return {era_.pending_objects(), era_.pending_bytes()};
  }
  [[nodiscard]] typename E::Stats stats() const noexcept {
    return era_.stats();
  }

 private:
  E era_;
  /// The era current when this locale's LIVE spine was published — its
  /// lifetime's lower tag when the next retire_spine retires it. Written
  /// only under the write lock; the initial spine is born at era 0.
  std::uint64_t spine_birth_era_ = 0;
  /// A spine went onto the era list since the last drain, so the next
  /// drain's scan has something to free.
  bool scan_owed_ = false;
};

}  // namespace rcua::reclaim

namespace rcua {

/// The policy tags RCUArray and ShardedCollection take.
using EbrPolicy = reclaim::EbrDomain<reclaim::Ebr>;
/// EBR with the paper's original collective EpochReaders[2] layout
/// (all-seq_cst, one pair per locale) — the ablation baseline.
using LegacyEbrPolicy = reclaim::EbrDomain<reclaim::LegacyEbr>;
using QsbrPolicy = reclaim::QsbrDomain;
/// Interval-based reclamation: readers publish [entry era, current era]
/// reservations, spines carry [birth, retire] era tags, and retirement
/// scans the live reservations instead of waiting for them — unreclaimed
/// memory stays bounded under a stalled reader by construction
/// (DESIGN.md §13; the reclamation tier Brown's EBR critique calls for).
using IbrPolicy = reclaim::EraDomain<reclaim::Ibr>;
/// Hazard eras: single-era reservations republished on every protect —
/// the hazard-pointer-like point of the era spectrum, same bounded-
/// memory guarantee and retire/scan machinery as IBR.
using HazardErasPolicy = reclaim::EraDomain<reclaim::HazardEras>;

}  // namespace rcua
