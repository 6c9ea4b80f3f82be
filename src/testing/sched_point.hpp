#pragma once

/// Cooperative schedule-exploration hooks (see testing/scheduler.hpp and
/// TESTING.md).
///
/// Protocol-critical code marks its interleaving-sensitive steps with
/// `RCUA_SCHED_POINT("site")`; their grace-period and fence waits go
/// through `plat::wait_until("site", predicate)`, which hands a
/// scheduled task's wait to `sched_await`. When the library is built
/// without RCUA_SCHED_TEST — the default for release, bench and the
/// tier-1/stress suites — every macro expands to a constant
/// and the hooks vanish entirely: no function call, no TLS lookup, no
/// extra branch. When built with RCUA_SCHED_TEST=1 (the `rcua_sched`
/// library variant the `sched` test tier links against), the hooks hand
/// control to the deterministic scheduler, and still reduce to one
/// thread-local load plus a predicted branch on threads the scheduler
/// does not own.

#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST

#include <cstddef>
#include <functional>

namespace rcua::testing {

/// True iff the calling thread is a logical task owned by a running
/// deterministic scheduler.
[[nodiscard]] bool sched_task_active() noexcept;

/// Creation-order id of the calling logical task; 0 when the calling
/// thread is not a scheduled task. Deterministic across replays — used
/// by the trace layer to tag events with the logical task instead of the
/// (run-varying) OS thread identity.
[[nodiscard]] std::size_t sched_task_id() noexcept;

/// Yield point: hands control to the scheduler, which picks the next
/// logical task to run (possibly this one again). No-op when the calling
/// thread is not a scheduled task.
void sched_point(const char* site) noexcept;

/// Blocks the calling logical task until `pred()` holds. The scheduler
/// re-evaluates the predicate (which must be side-effect free) when
/// choosing the next task to run; between the deciding evaluation and the
/// task's resumption no other task executes, so the condition still holds
/// on return. No-op (returns immediately) when the calling thread is not
/// a scheduled task — plat::wait_until falls back to its spin loop.
void sched_await(const char* site, std::function<bool()> pred);

/// Runs `body(0..n-1)` as n child tasks of the current logical task and
/// blocks until all of them complete — Cluster::coforall under the
/// scheduler. Children are full scheduling units: their steps interleave
/// with every other task's.
void sched_fork_join(std::size_t n,
                     const std::function<void(std::size_t)>& body);

/// Reports an invariant violation to the running scheduler (records the
/// message and fails the current schedule). Safe to call from scheduled
/// tasks only.
void sched_violation(const char* format_message);

/// Deliberately broken protocol variants. The harness's mutation checks
/// flip one of these and assert that exploration *finds* a violating
/// schedule — proving the harness has teeth, and documenting exactly
/// which protocol line prevents which bug.
struct Mutations {
  /// EBR: skip the read-side epoch re-verification (Algorithm 1 line 13).
  bool ebr_skip_reverify = false;
  /// EBR: reclaim without draining the old-parity reader counter
  /// (Algorithm 1 lines 6-7).
  bool ebr_skip_drain = false;
  /// EBR (owned layout): drop the writer-side seq_cst fence after the
  /// epoch bump. Emulated under the SC scheduler as the StoreLoad hoist
  /// the fence forbids: the drain's first column scan may be satisfied by
  /// values sampled before the bump became visible.
  bool ebr_skip_fence = false;
  /// Reader bank (plat::ReaderBank): hand every reader slot 0, in every
  /// bank that finds a thread's state by reader index. Each user assumes
  /// only the owner writes its slot: EBR's load-then-exchange increment
  /// loses a count when two readers load before either exchanges, an
  /// era or hazard-pointer reader that ends its section clears (or
  /// restores) the reservation a second reader still relies on, and a
  /// QSBR defer overwrites the observation another participant's
  /// reference relies on. Each way a writer frees what a live reader
  /// holds.
  bool shared_reader_slot = false;
  /// QSBR: checkpoint reclaims up to the *current* epoch instead of the
  /// minimum observed epoch over all participants (Algorithm 2 lines
  /// 6-8).
  bool qsbr_ignore_min = false;
  /// Watchdog: OverflowRetireList::flush_ready gates each deferred entry
  /// on its own retire parity alone instead of requiring both reader
  /// columns observed empty since the push. Plausible (it mirrors the
  /// blocking drain) but unsound: a timed-out grace period means a
  /// stalled reader on the *other* parity may hold the entry.
  bool watchdog_skip_recheck = false;
  /// Bulk ops: drain the destination aggregation buffers AFTER the
  /// read-side critical section that pinned the snapshot has closed,
  /// instead of before. Plausible (the flush "only copies elements", and
  /// under resize_add recycled blocks keep element pointers valid) but
  /// unsound: once the section closes a concurrent resize_remove's grace
  /// period can complete and free the dropped blocks the buffered
  /// operations still point into.
  bool bulk_flush_after_release = false;
  /// Async bulk ops: ISSUE the aggregation flushes inside the read-side
  /// section but deliver their completions only after it closed.
  /// Plausible (the ops were "sent" while pinned, and sync mode would
  /// have been safe at the same program point) but unsound: an async
  /// completion still holds raw block pointers, and once the section
  /// closes a concurrent resize_remove's grace period can free those
  /// blocks before the drain runs — the §10 completion-drain rule.
  bool async_drain_after_release = false;
  /// Block cache: serve a cached block copy without checking its
  /// snapshot-version and write-generation tags (rt::BlockCache::lookup).
  /// Plausible (the bytes were copied under a pinned snapshot, and
  /// Lemma 6's recycling means the block indices "still mean the same
  /// thing" across a resize_add) but unsound: a resize_remove +
  /// resize_add can free the copied block and put a *different* block at
  /// the same index, and a concurrent write() bumps the generation the
  /// copy was filled under — in both cases the entry is invalidated-but-
  /// present, and serving it is a stale read of reclaimed state
  /// (DESIGN.md §11; tests/test_sched_cache.cpp).
  bool cache_use_after_invalidate = false;
  /// IBR: publish the era reservation AFTER the protected-pointer load,
  /// with no reverify loop — the tempting "load first, reserve what you
  /// saw" order. Plausible (the reservation still covers the loaded
  /// object's birth era) but unsound: between the load and the publish a
  /// writer's retire+scan observes no reservation and frees the loaded
  /// object (tests/test_sched_eras.cpp).
  bool ibr_reserve_after_load = false;
  /// Hazard eras: clear the reservation slot as soon as the protected
  /// pointer is in hand, before the section's last access — the "pointer
  /// is already local" premature release. Plausible (the load itself was
  /// covered) but unsound: the very next retire+scan sees no reservation
  /// and frees the object under the section (tests/test_sched_eras.cpp).
  bool he_clear_before_access = false;
  /// Hazard pointers (baselines/hazard_array.hpp): clear the hazard slot
  /// after the publish-verify loop but before the guarded accesses — the
  /// same premature release expressed against raw pointer slots
  /// (tests/test_sched_hazard.cpp).
  bool hazard_clear_before_access = false;
  /// Shard migration (RCUArray::rehome): publish the replacement spine
  /// BEFORE draining the pipelined block-copy futures. Plausible (the
  /// copies were issued under the in-flight window before the publish,
  /// and "the wire preserves order") but unsound: a reader that loads
  /// the fresh spine between the publish and the copy drain reads
  /// replacement blocks whose contents never arrived — a value the
  /// array never stored (DESIGN.md §14; tests/test_sched_migration.cpp).
  bool migrate_publish_before_copy_complete = false;
  /// Shard migration (RCUArray::rehome): free the replaced source blocks
  /// BEFORE draining the readers of the old block mapping. Plausible
  /// (the new mapping is already published everywhere, so "no new reader
  /// can route to the old blocks") but unsound: a reader whose section
  /// pinned the OLD spine before the publish still holds pointers into
  /// the replaced blocks — the migrate→invalidate→drain ordering rule
  /// (DESIGN.md §14; tests/test_sched_migration.cpp).
  bool migrate_reclaim_before_mapping_drain = false;
  /// Resize (RCUArray::resize_add): store the served-block count that
  /// capacity() reads BEFORE the per-locale publishes instead of after
  /// the last one. Plausible (the writer holds the write lock and every
  /// publish is already decided) but unsound: a reader on a locale that
  /// has not published yet takes an index below capacity() and finds it
  /// out of bounds (tests/test_sched_rcu_array.cpp).
  bool capacity_before_publish = false;
};
[[nodiscard]] Mutations& mutations() noexcept;

}  // namespace rcua::testing

#define RCUA_SCHED_POINT(site) ::rcua::testing::sched_point(site)

/// Reads a mutation flag; constant false without RCUA_SCHED_TEST, so the
/// broken variant is compiled out of release code entirely.
#define RCUA_SCHED_MUT(field) (::rcua::testing::mutations().field)

#else  // !RCUA_SCHED_TEST

#define RCUA_SCHED_POINT(site) ((void)0)
#define RCUA_SCHED_MUT(field) false

#endif  // RCUA_SCHED_TEST
