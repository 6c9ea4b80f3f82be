#pragma once

#include <atomic>
#include <cstdint>

#include "platform/align.hpp"
#include "platform/spinlock.hpp"
#include "reclaim/retire_list.hpp"

namespace rcua::rt {

/// Interface a reclamation domain (e.g. reclaim::Qsbr) exposes to the
/// registry so parking can do per-domain housekeeping without a
/// dependency cycle.
class EpochDomain {
 public:
  virtual ~EpochDomain() = default;
  /// The domain's current StateEpoch.
  [[nodiscard]] virtual std::uint64_t current_epoch() const noexcept = 0;
};

/// Per-(thread, domain) state: the paper's thread-specific metadata.
struct DomainSlot {
  /// The newest StateEpoch this thread promised quiescence up to.
  std::atomic<std::uint64_t> observed_epoch{0};
  /// Set once the thread participates in the domain (defer or checkpoint);
  /// inactive slots are excluded from the safe-epoch minimum.
  std::atomic<bool> active{false};
  /// Thread-owned LIFO of deferred reclamations, descending safe epoch
  /// (Lemma 4). In the paper's design only the owning thread touches it;
  /// this implementation adds `flush_slot_unsafe` / domain teardown which
  /// drain *other* threads' lists, so list access takes the (normally
  /// uncontended) spinlock below. The fast path cost is one
  /// non-contended TTAS pair.
  reclaim::DeferList defer_list;
  plat::Spinlock list_lock;
};

/// Per-thread record reachable through the runtime's TLSList (§III-B).
/// Records are insert-only; a thread that exits is parked, never unlinked,
/// so lock-free traversal is always safe.
struct ThreadRecord {
  static constexpr std::size_t kMaxDomains = 8;

  DomainSlot slots[kMaxDomains];
  /// Parked threads are idle and hold no protected references; they are
  /// excluded from every domain's safe-epoch minimum.
  std::atomic<bool> parked{false};
  /// Intrusive TLSList link.
  ThreadRecord* next = nullptr;
};

namespace detail {
/// One-entry cache in front of a thread's per-registry record vector:
/// the last (registry id, record) pair local_record() resolved on this
/// thread. Registry ids start at 1 and are never reused, so a registry
/// destroyed and recreated at the same address cannot hit a stale entry.
struct LastRecord {
  std::uint64_t registry_id = 0;
  ThreadRecord* record = nullptr;
};
inline thread_local LastRecord tl_last_record;
}  // namespace detail

/// The runtime's TLSList: a registry of thread records plus the domain
/// slot allocator. Instantiable so tests can run isolated domains; the
/// process-wide instance is `ThreadRegistry::global()`.
class ThreadRegistry {
 public:
  ThreadRegistry();
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;
  ~ThreadRegistry();

  /// The process-wide registry (used by reclaim::Qsbr::global()).
  static ThreadRegistry& global();

  /// The calling thread's record in this registry, registering on first
  /// use. When the thread exits, the record is parked automatically
  /// (unless the registry died first). The repeat-caller fast path is a
  /// TLS load and a compare.
  ThreadRecord& local_record() {
    const detail::LastRecord& last = detail::tl_last_record;
    return last.registry_id == id_ ? *last.record : local_record_slow();
  }

  /// Head of the TLSList for iteration.
  [[nodiscard]] ThreadRecord* head() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Number of records (== threads that ever registered).
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Number of currently non-parked records (model input for checkpoint
  /// cost; observability).
  [[nodiscard]] std::uint64_t live_record_count() const noexcept;

  // -- Domain slots ----------------------------------------------------

  /// Claims a domain slot; aborts if all kMaxDomains are taken.
  std::size_t register_domain(EpochDomain& domain);

  /// Releases a slot. Flushes every record's pending deferrals for the
  /// slot — only call when the domain is quiescent (its destructor).
  void unregister_domain(std::size_t slot);

  /// Minimum observed epoch over all active, non-parked records for
  /// `slot`; returns `ceiling` when there are none.
  [[nodiscard]] std::uint64_t min_observed_epoch(
      std::size_t slot, std::uint64_t ceiling) const noexcept;

  /// Same, also reporting how many live (non-parked) records the scan
  /// visited — the checkpoint cost driver in the performance model.
  [[nodiscard]] std::uint64_t min_observed_epoch_counted(
      std::size_t slot, std::uint64_t ceiling,
      std::uint64_t& live_visited) const noexcept;

  // -- Parking (the paper's idle-thread support) ------------------------

  /// Marks the calling thread idle: for each domain it participates in,
  /// observe the newest state, reclaim what its own list allows, then
  /// exclude the thread from all minima until unpark.
  void park_current_thread();

  /// Re-admits the calling thread, observing every domain's current
  /// epoch *before* becoming visible.
  void unpark_current_thread();

  /// Reclaims every pending deferral in every record of `slot`. ONLY safe
  /// when no thread holds protected references.
  void flush_slot_unsafe(std::size_t slot);

 private:
  friend struct RegistryCacheTls;

  ThreadRecord& local_record_slow();

  std::atomic<ThreadRecord*> head_{nullptr};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<EpochDomain*> domains_[ThreadRecord::kMaxDomains];
  std::uint64_t id_;  // unique, never reused; guards stale TLS caches
};

}  // namespace rcua::rt
