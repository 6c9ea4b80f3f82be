#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bulk.hpp"
#include "core/snapshot.hpp"
#include "obs/trace.hpp"
#include "platform/align.hpp"
#include "platform/atomics.hpp"
#include "platform/backoff.hpp"
#include "reclaim/policy.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/global_lock.hpp"
#include "runtime/read_through.hpp"
#include "runtime/this_task.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua {

/// The block count reserve(n) grows to, the growth rule of both backends:
/// `blocks` (at least one) doubled until it covers `n` elements. Throws
/// std::length_error when no doubling's capacity is representable.
[[nodiscard]] inline std::size_t reserve_blocks(std::size_t blocks,
                                                std::size_t n,
                                                std::size_t block_size) {
  std::size_t want = blocks == 0 ? 1 : blocks;
  for (; want * block_size < n; want *= 2) {
    if (want > SIZE_MAX / block_size / 2) {
      throw std::length_error("reserve: " + std::to_string(n) +
                              " elements exceed every doubling");
    }
  }
  return want;
}

/// RCUArray: a parallel-safe distributed resizable array (the paper's
/// primary contribution). Reads and updates proceed concurrently with a
/// resize via Read-Copy-Update over immutable snapshots of the block
/// table; blocks are distributed round-robin across the cluster's
/// locales, and the metadata (snapshot pointer, epoch state,
/// NextLocaleId) is privatized: the array keeps one copy per locale,
/// built on that locale, so the access path is entirely node-local.
///
/// Key relaxations inherited from the paper:
///  * `index()` returns a *reference* so updates cost the same as reads
///    (§III-C). The reference stays valid across resizes because snapshot
///    clones recycle blocks (Lemma 6) — only the spine is ever reclaimed.
///  * Resizing only expands, in whole blocks (§IV-B fn.12).
///
/// Thread-safety contract:
///  * index/read/write: parallel-safe, including concurrently with resize.
///  * resize_add/reserve: parallel-safe against everything (serialized by
///    the cluster-wide WriteLock); each returns once every locale serves
///    the new blocks, and only then does capacity() count them.
///  * block walks (for_each_block_local/fill/reduce): parallel-safe, each
///    on its pinned spine; a walk's `fn` must not change the block table.
///  * QSBR policy: callers must invoke `reclaim::Qsbr::checkpoint()`
///    periodically (or rely on pool workers parking) and must not hold a
///    reference obtained *from a dropped spine's blocks*— note blocks are
///    recycled so element references are fine; the QSBR discipline only
///    gates the spine.
///  * destruction: requires external quiescence (no in-flight ops).
template <typename T, typename Policy = QsbrPolicy>
class RCUArray {
  struct PerLocale;

 public:
  struct Options {
    std::size_t block_size = 1024;
    /// QSBR domain; defaults to the process-wide one. Ignored under EBR.
    reclaim::Qsbr* qsbr = nullptr;
    /// Watchdog receiving stall diagnostics, bounding overflow bytes and
    /// holding the deadline of the EBR spine drain in resize (nullptr =
    /// the process-wide StallMonitor::global(), whose deadline 0 blocks:
    /// the paper's behaviour). With a deadline, a resize whose readers
    /// stall defers the old spine onto a per-locale overflow retire list
    /// instead of blocking.
    reclaim::StallMonitor* stall_monitor = nullptr;
    /// Sentinel for cache_capacity_bytes: defer to the environment.
    static constexpr std::size_t kCacheCapacityFromEnv =
        static_cast<std::size_t>(-1);
    /// Per-locale remote-block cache capacity in BYTES (rt::BlockCache).
    /// 0 disables the cache entirely — every access takes exactly the
    /// uncached path, bit-identical charges and comm counters. The
    /// default defers to RCUA_CACHE_CAPACITY_BYTES (itself defaulting
    /// to 0 = off). See DESIGN.md §11.
    std::size_t cache_capacity_bytes = kCacheCapacityFromEnv;
    /// Sentinel for home_locale: distribute blocks round-robin.
    static constexpr std::uint32_t kNoHomeLocale = UINT32_MAX;
    /// Pin every block allocation to ONE locale instead of round-robin —
    /// the shard-placement mode (DESIGN.md §14): a ShardedCollection
    /// shard is an RCUArray homed on one locale, so live migration
    /// (rehome) can move it wholesale. The default keeps the paper's
    /// round-robin distribution.
    std::uint32_t home_locale = kNoHomeLocale;
  };

  static constexpr bool uses_qsbr = Policy::is_qsbr;
  static constexpr bool uses_interval = Policy::is_interval;
  /// Publish attempts of a structural op that consult the fault plan;
  /// past this many injected broadcast drops the plan is ignored, so
  /// every structural op terminates under any plan.
  static constexpr std::uint32_t kMaxPublishAttempts = 64;

  RCUArray(rt::Cluster& cluster, std::size_t initial_capacity = 0,
           Options options = {})
      : cluster_(cluster),
        block_size_(options.block_size),
        cache_capacity_(options.cache_capacity_bytes ==
                                Options::kCacheCapacityFromEnv
                            ? rt::BlockCache::capacity_from_env()
                            : options.cache_capacity_bytes),
        home_locale_(options.home_locale),
        write_lock_(cluster, /*owner_locale=*/0),
        locales_(cluster.num_locales()) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (options.home_locale != Options::kNoHomeLocale &&
        options.home_locale >= cluster.num_locales()) {
      throw std::invalid_argument("home_locale >= num_locales");
    }
    reclaim::Qsbr& qsbr =
        options.qsbr != nullptr ? *options.qsbr : reclaim::Qsbr::global();
    reclaim::StallMonitor* monitor = options.stall_monitor;
    if (monitor == nullptr) monitor = &reclaim::StallMonitor::global();
    cluster_.coforall_locales([&](std::uint32_t l) {
      const reclaim::RetireSite site{cluster_.locale(l), *monitor,
                                     stalled_spines_};
      locales_[l] = std::make_unique<PerLocale>(qsbr, site, cluster_.comm(), l,
                                                cache_capacity_);
    });
    if (initial_capacity > 0) resize_add(initial_capacity);
  }

  ~RCUArray() {
    // Contract: no concurrent operations, so locale 0's spine holds the
    // complete block set, as every locale's does.
    const std::vector<Block<T>*> blocks = spine0().blocks();
    for (std::uint32_t l = 0; l < cluster_.num_locales(); ++l) {
      PerLocale& p = priv_at(l);
      // External quiescence means every deferred spine is freeable now.
      p.reclaimer.flush_unsafe();
      delete p.global_snapshot.load(std::memory_order_acquire);
    }
    for (Block<T>* b : blocks) {
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      delete b;
    }
  }

  RCUArray(const RCUArray&) = delete;
  RCUArray& operator=(const RCUArray&) = delete;

  // -- Indexing (Algorithm 3, Index) -----------------------------------

  /// Returns a reference to element `i`, valid across concurrent resizes.
  /// Both reads and updates go through this reference, which escapes the
  /// read-side section deliberately (§III-C): it points into a recycled
  /// block, not the reclaimed spine. A store through it bumps no write
  /// generation, so with the block cache on, read() of the element on
  /// another locale may keep returning a copy cached before the store
  /// (DESIGN.md §11); write() keeps cached copies coherent.
  T& index(std::size_t i) {
    return with_slot<Access::kIndex>(
        i, [](T& slot, Block<T>*) -> T& { return slot; });
  }
  T& operator[](std::size_t i) { return index(i); }

  /// Bounds-checked access; every element op is (std::out_of_range).
  T& at(std::size_t i) { return index(i); }

  /// Convenience value read / write (the paper's "update" is the write).
  /// For machine-word elements these are relaxed atomics, so concurrent
  /// read/write mixes on the same index are defined (§III-C contract); a
  /// `std::atomic<U>` element is read and written as a `U`, relaxed.
  /// Larger element types fall back to plain accesses and inherit the
  /// single-writer-per-index discipline those imply.
  ///
  /// With the block cache enabled (Options::cache_capacity_bytes > 0),
  /// read() of a remote block goes through the calling locale's cache
  /// (rt::ReadThrough) inside the read-side section: a hit is charged a
  /// node-local copy instead of remote traffic, a miss fills the whole
  /// block through AsyncComm and caches it under the pinned version.
  plat::element_value_t<T> read(std::size_t i) {
    // The load happens INSIDE the read-side section (unlike index(),
    // whose returned reference deliberately escapes it): value ops must
    // stay safe against rehome(), which — unlike resize — really does
    // reclaim the replaced blocks once readers drain.
    return with_slot<Access::kRead>(
        i, [](T& slot, Block<T>*) { return plat::relaxed_load(slot); });
  }
  void write(std::size_t i, plat::element_value_t<T> value) {
    // Store + generation bump both land INSIDE the section for the same
    // migration-safety reason as read(): a rehome drain that completes
    // between a section exit and a post-section store would free the
    // block out from under the store. §III-C's escaping-reference
    // relaxation only covers recycled blocks (resize), not reclaimed
    // ones (rehome).
    with_slot<Access::kWrite>(i, [&](T& slot, Block<T>* b) {
      plat::relaxed_store(slot, std::move(value));
      // Write-through coherence (DESIGN.md §11): the PUT above already
      // updated the block; bumping its write generation AFTER the store
      // lands (release) invalidates every cached copy of the block on
      // its next lookup. No broadcast — the stamp travels with the
      // block.
      if (cache_enabled()) b->bump_generation();
    });
  }

  // -- Resizing (Algorithm 3, Resize) ----------------------------------

  /// Expands by `num_elements`, rounded up to whole blocks, distributing
  /// the new blocks round-robin across locales and replicating the
  /// snapshot swap on every locale. Parallel-safe against all operations.
  void resize_add(std::size_t num_elements) {
    if (num_elements == 0) return;
    const std::size_t nblocks =
        (num_elements + block_size_ - 1) / block_size_;
    obs::TraceSpan resize_span("rcua.resize_add", "rcua", nblocks);
    std::lock_guard<rt::GlobalLock> guard(write_lock_);  // lines 10, 29
    add_blocks(nblocks);
  }

  /// Grows, when capacity() < n, to the first doubling of the block count
  /// (from at least one block) that covers `n`, in one resize_add: on
  /// return index n - 1 is in bounds on every locale. Parallel-safe; the
  /// growth rule of every container. Throws std::length_error when no
  /// doubling covers `n`.
  void reserve(std::size_t n) {
    if (capacity() >= n) return;
    std::lock_guard<rt::GlobalLock> guard(write_lock_);
    const std::size_t have = num_blocks();
    const std::size_t want = reserve_blocks(have, n, block_size_);
    if (want == have) return;  // a racing grower covered n
    obs::TraceSpan resize_span("rcua.resize_add", "rcua", want - have);
    add_blocks(want - have);
  }

  /// EXTENSION (beyond the paper, which covers expansion only): shrinks
  /// the array by `num_elements`, rounded DOWN to whole blocks, from the
  /// tail. Parallel-safe against index/read/write *to the surviving
  /// region*; references into the removed region are invalidated once
  /// reclamation completes. The removed blocks are freed once every
  /// locale's blocking drain completes, or deferred under QSBR.
  void resize_remove(std::size_t num_elements) {
    const std::size_t remove_blocks = num_elements / block_size_;
    if (remove_blocks == 0) return;
    obs::TraceSpan resize_span("rcua.resize_remove", "rcua", remove_blocks);
    std::lock_guard<rt::GlobalLock> guard(write_lock_);
    const std::vector<Block<T>*>& current = spine0().blocks();
    const std::size_t keep =
        remove_blocks >= current.size() ? 0 : current.size() - remove_blocks;
    // The blocks being dropped, copied before the publish retires
    // `current`'s spine.
    const std::vector<Block<T>*> dropped(
        current.begin() + static_cast<std::ptrdiff_t>(keep), current.end());
    // Before any locale stops serving the dropped blocks.
    served_blocks_.store(keep, std::memory_order_release);
    // Unlike resize_add, this drain stays BLOCKING even under a
    // monitor with a deadline: the dropped blocks freed below are shared
    // by every locale's spine, so their reclamation needs every locale's
    // readers drained — neither the per-locale parity tag of the EBR
    // overflow list nor the era list can cover them (DESIGN.md §8/§13). A
    // stalled reader therefore delays resize_remove (an extension path),
    // never resize_add.
    drain_all(publish_all(keep, {}, /*drain_follows=*/true,
                          "rcua.resize.publish", "rcua.resize.published"),
              "rcua.resize.epoch_bumped", "rcua.resize.retire_spine");
    // Every locale has swapped and drained; no snapshot reaches the
    // dropped blocks.
    free_blocks(dropped, "rcua.resize.recycle_block");
    resizes_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- Live migration (DESIGN.md §14) -----------------------------------

  /// EXTENSION: live migration of every block of this array to locale
  /// `dst` — the shard-migration primitive behind
  /// service::ShardedCollection. Protocol, in order:
  ///
  ///   1. COPY: allocate replacement blocks on `dst` and copy the source
  ///      contents into them through the async comm path, pipelined
  ///      under the in-flight window (§10). The replacements are
  ///      unpublished — no reader can observe them — so a mid-copy
  ///      destination death (FaultPlan kKillLocale, consulted between
  ///      block copies) rolls back by freeing them and returning false
  ///      with the array untouched.
  ///   2. PUBLISH: every copy completion has drained; each locale
  ///      publishes the successor spine holding the replacements and
  ///      drops its BlockCache entries (the §11 eviction interlock —
  ///      cached copies of replaced blocks must leave the ledger before
  ///      the frees below).
  ///   3. DRAIN + RECLAIM: wait out every locale's readers of the old
  ///      block mapping (blocking, like resize_remove: the replaced
  ///      blocks are shared by every locale's old spine), then free the
  ///      replaced source blocks. Old spines ride the configured policy
  ///      (EBR drain / QSBR deferral / era retire) like any resize.
  ///
  /// The migrate→invalidate→drain ordering is the §14 rule; the two
  /// sched mutations (`migrate_publish_before_copy_complete`,
  /// `migrate_reclaim_before_mapping_drain`) each break one arrow and
  /// tests/test_sched_migration.cpp proves the harness catches both.
  ///
  /// Concurrency contract: VALUE ops (read/write/bulk/View) are safe
  /// throughout, on every locale — they complete inside their read-side
  /// section (with_slot). Escaping REFERENCES (index/operator[]/at) are
  /// NOT migration-safe: §III-C lets them outlive the section only
  /// because resize recycles blocks, and rehome reclaims the replaced
  /// blocks once readers drain — a reference obtained before the drain
  /// and dereferenced after it reads freed memory. Don't hold element
  /// references across a migration of this array. Element WRITES that
  /// race the copy phase can be LOST: a store that lands in a source
  /// block after that block was copied is not in its replacement, and
  /// nothing gates element writers against a migration yet (only
  /// structural ops serialize against it, on the write lock). Returns
  /// true when the migration published, false on a fault-injected
  /// rollback.
  bool rehome(std::uint32_t dst) {
    if (dst >= cluster_.num_locales()) {
      throw std::invalid_argument("rehome: dst locale out of range");
    }
    obs::TraceSpan span("rcua.rehome", "rcua", dst);
    std::lock_guard<rt::GlobalLock> guard(write_lock_);
    const std::uint32_t here = cluster_.here();
    const std::vector<Block<T>*> old_blocks = spine0().blocks();
    // Indices (and blocks) living somewhere other than `dst`; blocks
    // already homed there are kept in place (nothing to copy or free).
    std::vector<std::size_t> moved;
    std::vector<Block<T>*> replaced;
    for (std::size_t i = 0; i < old_blocks.size(); ++i) {
      if (old_blocks[i]->owner() != dst) {
        moved.push_back(i);
        replaced.push_back(old_blocks[i]);
      }
    }
    if (moved.empty()) {
      home_locale_.store(dst, std::memory_order_relaxed);
      return true;
    }

    // -- 1. COPY ---------------------------------------------------------
    std::vector<Block<T>*> fresh(old_blocks);
    rt::AsyncComm async(cluster_.comm(), here);
    {
      std::vector<rt::future<Block<T>*>> allocs;
      allocs.reserve(moved.size());
      for (std::size_t k = 0; k < moved.size(); ++k) {
        allocs.push_back(allocate_on(async, dst));
      }
      for (std::size_t k = 0; k < moved.size(); ++k) {
        fresh[moved[k]] = allocs[k].get();
      }
    }
    std::vector<rt::future<void>> copies;
    copies.reserve(moved.size());
    bool killed = false;
    for (std::size_t i : moved) {
      // Chaos: the destination dies mid-copy. Everything issued so far
      // is unpublished, so the rollback is purely local.
      if (rt::FaultPlan* plan = cluster_.fault_plan();
          plan != nullptr &&
          plan->fires(rt::FaultPlan::Action::kKillLocale, dst)) {
        RCUA_SCHED_POINT("rcua.rehome.killed");
        killed = true;
        break;
      }
      RCUA_SCHED_POINT("rcua.rehome.copy_issue");
      Block<T>* src = old_blocks[i];
      Block<T>* rep = fresh[i];
      const std::size_t n = block_size_;
      copies.push_back(async.execute(dst, /*weight=*/n, [src, rep, n]() {
        RCUA_SCHED_POINT("rcua.rehome.copy_block");
        plat::relaxed_copy(rep->data(), src->data(), n);
        sim::charge(sim::CostModel::get().bulk_copy_ns_per_elem *
                    static_cast<double>(n));
      }));
    }
    if (killed) {
      async.cancel_pending();
      for (std::size_t i : moved) {
        cluster_.locale(dst).note_free(fresh[i]->capacity() * sizeof(T));
        delete fresh[i];
      }
      rehome_rollbacks_.fetch_add(1, std::memory_order_relaxed);
      obs::trace_instant("rcua.rehome.rollback", "rcua", dst);
      return false;
    }
    if (!RCUA_SCHED_MUT(migrate_publish_before_copy_complete)) {
      // Copy-before-publish: the replacement blocks hold the full
      // contents BEFORE any reader can be routed to them.
      for (auto& f : copies) f.wait();
      RCUA_SCHED_POINT("rcua.rehome.copies_drained");
    }

    // -- 2. PUBLISH + invalidate -----------------------------------------
    // The whole table is new, so every cached block copy goes: replaced
    // blocks change identity per index, and surviving entries would only
    // ever be version-stale lazy misses.
    const std::vector<Snapshot<T>*> retired =
        publish_all(/*keep=*/0, fresh, /*drain_follows=*/true,
                    "rcua.rehome.publish", "rcua.rehome.published");
    if (RCUA_SCHED_MUT(migrate_publish_before_copy_complete)) {
      // MUTATION (sched harness only): the replacement spine is already
      // visible on every locale; only now do the pipelined copy
      // completions land — a reader in the window saw values the array
      // never stored.
      for (auto& f : copies) f.wait();
    }

    // -- 3. DRAIN + reclaim ----------------------------------------------
    const bool freed_early =
        RCUA_SCHED_MUT(migrate_reclaim_before_mapping_drain);
    if (freed_early) {
      // MUTATION (sched harness only): reclaim the replaced source
      // blocks before the old mapping's readers drained — a section
      // that pinned the old spine still holds pointers into them.
      free_blocks(replaced, "rcua.rehome.free_block");
    }
    // Replaced blocks are shared by every locale's old spine, so this
    // drain is deliberately BLOCKING, exactly like resize_remove's.
    drain_all(retired, "rcua.rehome.epoch_bumped", "rcua.rehome.drained");
    if (!freed_early) free_blocks(replaced, "rcua.rehome.free_block");
    home_locale_.store(dst, std::memory_order_relaxed);
    rehomes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// This array's pinned home locale (Options::home_locale, updated by
  /// rehome); Options::kNoHomeLocale when blocks distribute round-robin.
  /// A relaxed load: element routing reads it concurrently with rehome.
  [[nodiscard]] std::uint32_t home_locale() const noexcept {
    return home_locale_.load(std::memory_order_relaxed);
  }
  /// Completed rehome() migrations.
  [[nodiscard]] std::uint64_t rehomes() const noexcept {
    return rehomes_.load(std::memory_order_relaxed);
  }
  /// rehome() calls rolled back by an injected kKillLocale fault.
  [[nodiscard]] std::uint64_t rehome_rollbacks() const noexcept {
    return rehome_rollbacks_.load(std::memory_order_relaxed);
  }

  // -- Snapshot views ----------------------------------------------------

  /// A pinned, read-only view of one snapshot: amortizes the read-side
  /// protocol over many accesses and guarantees a *consistent* block
  /// table (capacity cannot change under the view). Under EBR the view
  /// holds the read-side critical section open, so writers wait for it —
  /// keep views short-lived. Under QSBR validity follows the usual rule:
  /// the view dies at the holder's next checkpoint.
  class View {
   public:
    explicit View(RCUArray& arr) : View(arr, arr.priv()) {}

    [[nodiscard]] std::size_t capacity() const noexcept {
      return snapshot_->capacity();
    }
    [[nodiscard]] std::size_t num_blocks() const noexcept {
      return snapshot_->num_blocks();
    }
    /// The snapshot version pinned at construction (DESIGN.md §11).
    [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

    const T& operator[](std::size_t i) const {
      const std::size_t bidx = i / arr_.block_size_;
      const std::size_t off = i % arr_.block_size_;
      if (bidx >= snapshot_->num_blocks()) {
        throw_index_out_of_range(i, snapshot_->capacity());
      }
      Block<T>* b = snapshot_->block(bidx);
      const std::uint32_t here = arr_.cluster_.here();
      arr_.cluster_.comm().record_access(here, b->owner(), false);
      sim::touch_block(b->id(), b->owner() != here, false);
      return (*b)[off];
    }

   private:
    View(RCUArray& arr, PerLocale& p)
        : arr_(arr),
          section_(p.reclaimer),
          snapshot_(section_.pin(p.global_snapshot)),
          // Hoisted once: every consumer (cache tags, charging) reads
          // this value instead of re-deriving it per access.
          version_(snapshot_->version()) {
      sim::charge(sim::CostModel::get().atomic_load_ns);
    }

    RCUArray& arr_;
    reclaim::ReadSection<Policy> section_;
    Snapshot<T>* snapshot_;
    std::uint64_t version_;
  };

  /// Pins the calling locale's current snapshot (see View).
  [[nodiscard]] View view() { return View(*this); }

  // -- Bulk / parallel operations ----------------------------------------

  /// Tuning for the bulk operations below (core/bulk.hpp).
  using BulkOptions = rcua::BulkOptions;

  /// Copies elements [first, first+count) into `out[0..count)` with ONE
  /// snapshot resolution and one read-side critical section for the whole
  /// range, draining remote spans through a destination aggregator: the
  /// communication cost is one remote execution per destination flush —
  /// O(blocks touched), not O(count) GETs. Safe concurrently with
  /// resize_add (the pinned snapshot plus Lemma 6's recycled blocks; see
  /// DESIGN.md §9). Throws std::out_of_range (before copying anything)
  /// when the range exceeds the snapshot's capacity.
  void bulk_read(std::size_t first, std::size_t count, T* out,
                 BulkOptions opts = {}) {
    opts.mutate = false;
    for_each_block(
        first, count,
        [out, first](std::size_t base, T* data, std::size_t len) {
          plat::relaxed_copy(out + (base - first), data, len);
        },
        opts);
  }

  /// Convenience overload returning the elements in a fresh vector.
  [[nodiscard]] std::vector<T> bulk_read(std::size_t first,
                                         std::size_t count,
                                         BulkOptions opts = {}) {
    std::vector<T> out(count);
    bulk_read(first, count, out.data(), opts);
    return out;
  }

  /// Writes `values` over elements [first, first+values.size()) under
  /// the same single-snapshot / aggregated-drain regime as bulk_read.
  /// Writes into recycled blocks, so they stay visible across concurrent
  /// resize_adds (Lemma 6). Element-level atomicity matches write():
  /// relaxed per-element stores for machine-word T, plain stores
  /// otherwise.
  void bulk_write(std::size_t first, std::span<const T> values,
                  BulkOptions opts = {}) {
    opts.mutate = true;
    for_each_block(
        first, values.size(),
        [values, first](std::size_t base, T* data, std::size_t len) {
          plat::relaxed_copy(data, values.data() + (base - first), len);
        },
        opts);
  }

  /// Runs `fn(base_index, T* data, len)` once over each maximal per-block
  /// span of [first, first+count), against one pinned snapshot, in the
  /// aggregator's drain order: the bulk engine, rcua::bulk_visit, on the
  /// calling locale's copy. `fn` MUST NOT touch this array (the read-side
  /// section is open) and must not retain `data` past its own invocation.
  template <typename F>
  void for_each_block(std::size_t first, std::size_t count, F&& fn,
                      BulkOptions opts = {}) {
    PerLocale& p = priv();
    bulk_visit(cluster_, p.reclaimer, p.global_snapshot, p.cache, first,
               count, opts, std::forward<F>(fn));
  }

  /// Runs `fn(global_block_index, Block<T>&)` for every block, each on a
  /// task on the block's OWNING locale — the locality-aware loop the
  /// paper's DSI future work calls for. Each locale walks the spine its
  /// read section pinned at entry, so any structural op may run
  /// concurrently, but `fn` (inside the section) must not change the
  /// block table. An `fn` that writes the block must bump its generation
  /// after the stores when the cache is on (`blk.bump_generation()`), or
  /// a remote locale's cached copy outlives the write (DESIGN.md §11).
  template <typename F>
  void for_each_block_local(F&& fn) {
    cluster_.coforall_locales([&](std::uint32_t l) {
      PerLocale& p = priv_at(l);
      reclaim::ReadSection<Policy> section(p.reclaimer);
      const Snapshot<T>& s = *section.pin(p.global_snapshot);
      for (std::size_t b = 0; b < s.num_blocks(); ++b) {
        Block<T>* blk = s.block(b);
        if (blk->owner() != l) continue;
        sim::touch_block(blk->id(), false, true);
        fn(b, *blk);
      }
    });
  }

  /// Parallel fill, executed with full locality.
  void fill(const T& value) {
    const auto& m = sim::CostModel::get();
    for_each_block_local([&](std::size_t, Block<T>& blk) {
      for (std::size_t i = 0; i < blk.capacity(); ++i) blk[i] = value;
      if (cache_enabled()) blk.bump_generation();
      sim::charge(m.bulk_copy_ns_per_elem *
                  static_cast<double>(blk.capacity()));
    });
  }

  /// Parallel reduction, a fold over the block walk: `fn(acc, element)`
  /// folds each locale's local elements among the first `count` (all by
  /// default) into a partial seeded with `init`, and `combine` folds the
  /// partials into `init` in locale order. `init` must be an identity of
  /// `fn` and `combine`: it enters the result once per locale plus once.
  /// R must be copyable.
  template <typename R, typename Fold, typename Combine>
  [[nodiscard]] R reduce(R init, Fold&& fn, Combine&& combine,
                         std::size_t count = SIZE_MAX) {
    std::vector<R> partials(cluster_.num_locales(), init);
    const double ns_per_elem = sim::CostModel::get().bulk_copy_ns_per_elem;
    for_each_block_local([&](std::size_t b, Block<T>& blk) {
      const std::size_t base = b * block_size_;
      if (base >= count) return;
      const std::size_t limit = std::min(blk.capacity(), count - base);
      R partial = std::move(partials[blk.owner()]);
      for (std::size_t i = 0; i < limit; ++i) {
        partial = fn(std::move(partial), blk[i]);
      }
      partials[blk.owner()] = std::move(partial);
      sim::charge(ns_per_elem * static_cast<double>(limit) / 4.0);
    });
    R total = std::move(init);
    for (R& partial : partials) {
      total = combine(std::move(total), std::move(partial));
    }
    return total;
  }

  // -- Introspection ----------------------------------------------------

  /// Elements every locale serves: an index below it is in bounds on
  /// every locale. One acquire load, no read section; view().capacity()
  /// is the calling locale's replica, which runs ahead of this during a
  /// resize_add and behind it during a resize_remove.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return num_blocks() * block_size_;
  }

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return served_blocks_.load(std::memory_order_acquire);
  }

  /// Locale owning the block that holds element `i`.
  [[nodiscard]] std::uint32_t block_owner(std::size_t i) const {
    const std::size_t bidx = i / block_size_;
    PerLocale& p = priv();
    reclaim::ReadSection<Policy> section(p.reclaimer);
    const Snapshot<T>& s = *section.pin(p.global_snapshot);
    if (bidx >= s.num_blocks()) throw_index_out_of_range(i, s.capacity());
    return s.block(bidx)->owner();
  }

  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  // -- Block cache observability (rt::BlockCache; DESIGN.md §11) --------

  /// True when the per-locale remote-block cache is active (capacity>0).
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_capacity_ > 0;
  }
  [[nodiscard]] std::size_t cache_capacity_bytes() const noexcept {
    return cache_capacity_;
  }
  [[nodiscard]] rt::BlockCache::Stats cache_stats_at(
      std::uint32_t locale) const {
    return priv_at(locale).cache.stats();
  }
  [[nodiscard]] std::size_t cache_bytes_used_at(std::uint32_t locale) const {
    return priv_at(locale).cache.bytes_used();
  }
  [[nodiscard]] std::size_t cache_entries_at(std::uint32_t locale) const {
    return priv_at(locale).cache.entries();
  }
  [[nodiscard]] std::uint64_t resize_count() const noexcept {
    return resizes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] rt::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] rt::GlobalLock& write_lock() noexcept { return write_lock_; }

  /// Stats of locale `locale`'s reclaimer: epoch or era counters, all
  /// zero under QSBR (no per-locale reader state).
  [[nodiscard]] auto ebr_stats_at(std::uint32_t locale) const {
    return priv_at(locale).reclaimer.stats();
  }

  // -- Stall tolerance observability ------------------------------------

  /// Publish rounds of any structural op repeated because a locale's
  /// broadcast step was dropped (injected fault) — each increment is one
  /// retry sweep.
  [[nodiscard]] std::uint64_t broadcast_retries() const noexcept {
    return broadcast_retries_.load(std::memory_order_relaxed);
  }
  /// Spines deferred onto an overflow list because their drain timed out.
  [[nodiscard]] std::uint64_t stalled_spines() const noexcept {
    return stalled_spines_.load(std::memory_order_relaxed);
  }
  /// Retired-but-unreclaimed spine bytes across all locales, whatever
  /// list they live on: EBR overflow lists, or the (bounded) era retire
  /// lists of the interval policies. QSBR deferral is process-global and
  /// not counted here.
  [[nodiscard]] std::size_t reclaim_pending_bytes() const {
    return sum_locales([](const auto& r) { return r.pending().bytes; });
  }
  /// Spine count behind reclaim_pending_bytes().
  [[nodiscard]] std::size_t reclaim_pending_objects() const {
    return sum_locales([](const auto& r) { return r.pending().objects; });
  }

  /// Manually retries reclamation of every locale's deferred spines
  /// (resizes do this opportunistically anyway). Returns spines freed.
  std::size_t reclaim_overflow() {
    std::lock_guard<rt::GlobalLock> guard(write_lock_);
    std::atomic<std::size_t> before{0};
    std::atomic<std::size_t> after{0};
    cluster_.coforall_locales([&](std::uint32_t l) {
      auto& r = priv_at(l).reclaimer;
      before.fetch_add(r.pending().objects, std::memory_order_relaxed);
      r.flush();
      after.fetch_add(r.pending().objects, std::memory_order_relaxed);
    });
    return before.load(std::memory_order_relaxed) -
           after.load(std::memory_order_relaxed);
  }

 private:
  /// The privatized per-locale copy (Listing 1's RCUArrayMetaData).
  struct alignas(plat::kCacheLine) PerLocale {
    PerLocale(reclaim::Qsbr& qsbr, const reclaim::RetireSite& site,
              rt::CommLayer& comm, std::uint32_t l, std::size_t cache_capacity)
        : reclaimer(qsbr, site), cache(comm, l, cache_capacity) {}
    std::atomic<Snapshot<T>*> global_snapshot{new Snapshot<T>()};
    /// This locale's reclaimer: what the spine's read sections and
    /// retirements run against (reclaim/policy.hpp).
    Policy reclaimer;
    std::uint32_t next_locale_id = 0;
    /// This locale's cache of this array's remote blocks (DESIGN.md
    /// §11), disabled when capacity is 0. On its own cache line: a
    /// lookup's lock must not share one with the spine pointer that
    /// every element op on this locale loads.
    alignas(plat::kCacheLine) rt::BlockCache cache;
  };

  /// What an element op does with its slot: hand out the reference (never
  /// served from the block cache), copy the value out, or store into it.
  enum class Access { kIndex, kRead, kWrite };

  /// Locale 0's spine. Every locale's spine holds the same block table,
  /// so under the write lock (or the destructor's quiescence) this is the
  /// array's table.
  [[nodiscard]] const Snapshot<T>& spine0() const {
    return *priv_at(0).global_snapshot.load(std::memory_order_acquire);
  }

  /// Allocates one block on `target` through `async` (Algorithm 3's
  /// `on Locales[locId]`): the allocation site of resize_add and rehome.
  rt::future<Block<T>*> allocate_on(rt::AsyncComm& async,
                                    std::uint32_t target) {
    return async.execute(target, /*weight=*/0, [this, target]() {
      Block<T>* b = Block<T>::create(cluster_.locale(target), block_size_);
      sim::charge(sim::CostModel::get().alloc_block_ns);
      return b;
    });
  }

  /// Algorithm 3 lines 9-28 under the caller's write lock: appends
  /// `nblocks` blocks on every locale, then counts them in capacity().
  void add_blocks(std::size_t nblocks) {
    std::vector<Block<T>*> new_blocks;  // line 9
    new_blocks.reserve(nblocks);
    const std::size_t keep = spine0().num_blocks();
    const std::uint32_t here = cluster_.here();
    std::uint32_t loc = priv_at(here).next_locale_id;  // line 11
    // Allocate and distribute new blocks (lines 12-16), pipelined: each
    // remote `on Locales[locId]` allocation is issued asynchronously so
    // its launch latency overlaps with the other allocations (and same-
    // locale allocations run inline), instead of paying one full
    // round-trip per block. All futures are collected before the
    // broadcast below, preserving the round-robin block order.
    {
      rt::AsyncComm async(cluster_.comm(), here);
      std::vector<rt::future<Block<T>*>> pending;
      pending.reserve(nblocks);
      const std::uint32_t home = home_locale();
      const bool pinned = home != Options::kNoHomeLocale;
      for (std::size_t k = 0; k < nblocks; ++k) {
        pending.push_back(allocate_on(async, pinned ? home : loc));
        if (!pinned) loc = (loc + 1) % cluster_.num_locales();
      }
      for (auto& f : pending) new_blocks.push_back(f.get());
    }

    if (RCUA_SCHED_MUT(capacity_before_publish)) {
      // MUTATION (sched harness only): counted before any locale serves.
      served_blocks_.store(keep + nblocks, std::memory_order_release);
    }
    // Update performed on each node (lines 18-27); every block stays, so
    // no drain follows.
    publish_all(keep, new_blocks, /*drain_follows=*/false,
                "rcua.resize.publish", "rcua.resize.published");
    // Line 28, read only under the write lock.
    for (std::uint32_t l = 0; l < cluster_.num_locales(); ++l) {
      priv_at(l).next_locale_id = loc;
    }
    // Every locale serves the new blocks, so capacity() may count them.
    served_blocks_.store(keep + nblocks, std::memory_order_release);
    resizes_.fetch_add(1, std::memory_order_relaxed);
  }

  /// RCU_Write of one structural op on locale `l` (Algorithm 3 lines
  /// 18-27), the only place a replacement spine is published: retries the
  /// locale's deferred spines, publishes the successor keeping the first
  /// `keep` blocks and appending `tail`, and retires the old spine.
  /// Returns what a following blocking drain must free (`drain_follows`),
  /// or nullptr. The caller frees blocks from `keep` on only after that
  /// drain, so this locale's cached copies of them go first (the §11
  /// eviction interlock; a fill in flight completes in its reader's
  /// pinned section, which the drain waits out).
  Snapshot<T>* publish_spine(std::uint32_t l, std::size_t keep,
                             std::span<Block<T>* const> tail,
                             bool drain_follows, const char* publish,
                             [[maybe_unused]] const char* published) {
    PerLocale& p = priv_at(l);
    p.reclaimer.flush();  // opportunistic retry of deferred spines
    Snapshot<T>* old = p.global_snapshot.load(std::memory_order_relaxed);
    Snapshot<T>* fresh = Snapshot<T>::successor(*old, keep, tail);
    RCUA_SCHED_POINT(publish);
    p.global_snapshot.store(fresh, std::memory_order_release);
    RCUA_SCHED_POINT(published);
    obs::trace_instant(publish, "rcua", l);
    if (drain_follows && p.cache.enabled()) p.cache.invalidate_tail(keep);
    const std::size_t bytes =
        sizeof(Snapshot<T>) + old->num_blocks() * sizeof(Block<T>*);
    return p.reclaimer.retire_spine(old, bytes, drain_follows);
  }

  /// publish_spine on every locale, the "on each node" of every structural
  /// op. A locale whose step the fault plan drops is re-broadcast with
  /// backoff until every locale has published; past kMaxPublishAttempts
  /// the plan is ignored. Returns what each locale's drain_all must free.
  std::vector<Snapshot<T>*> publish_all(std::size_t keep,
                                        std::span<Block<T>* const> tail,
                                        bool drain_follows, const char* publish,
                                        const char* published) {
    std::vector<Snapshot<T>*> held(cluster_.num_locales(), nullptr);
    std::vector<std::atomic<bool>> done(cluster_.num_locales());
    plat::Backoff backoff;
    for (std::uint32_t attempt = 0;; ++attempt) {
      cluster_.coforall_locales([&](std::uint32_t l) {
        if (done[l].load(std::memory_order_acquire)) return;
        if (rt::FaultPlan* plan = cluster_.fault_plan();
            plan != nullptr && attempt < kMaxPublishAttempts &&
            plan->fires(rt::FaultPlan::Action::kDropBroadcast, l)) {
          RCUA_SCHED_POINT("rcua.resize.broadcast_dropped");
          return;  // injected lost broadcast: this locale missed the swap
        }
        held[l] = publish_spine(l, keep, tail, drain_follows, publish,
                                published);
        done[l].store(true, std::memory_order_release);
      });
      bool all_published = true;
      for (auto& d : done) {
        all_published = all_published && d.load(std::memory_order_acquire);
      }
      if (all_published) return held;
      broadcast_retries_.fetch_add(1, std::memory_order_relaxed);
      backoff.pause();
    }
  }

  /// The blocking drain of every locale after publish_all: waits out each
  /// locale's readers of the spine it retired, then frees `held[l]`.
  void drain_all(const std::vector<Snapshot<T>*>& held, const char* bumped,
                 const char* drained) {
    cluster_.coforall_locales([&](std::uint32_t l) {
      priv_at(l).reclaimer.drain(held[l], bumped, drained);
    });
  }

  template <typename F>
  [[nodiscard]] std::size_t sum_locales(F&& per_locale) const {
    std::size_t total = 0;
    for (std::uint32_t l = 0; l < cluster_.num_locales(); ++l) {
      total += per_locale(priv_at(l).reclaimer);
    }
    return total;
  }

  /// Frees blocks no snapshot reaches any more, once every locale has
  /// drained (resize_remove, rehome). QSBR defers them instead: paper-
  /// style escaping references may still target them until their holders
  /// checkpoint.
  void free_blocks(const std::vector<Block<T>*>& blocks,
                   [[maybe_unused]] const char* site) {
    const double ns = sim::CostModel::get().alloc_block_ns / 2;
    for (Block<T>* b : blocks) {
      RCUA_SCHED_POINT(site);
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      sim::charge(ns);
      priv().reclaimer.free(b);
    }
  }

  [[nodiscard]] PerLocale& priv() const {
    return priv_at(cluster_.here());
  }
  [[nodiscard]] PerLocale& priv_at(std::uint32_t locale) const {
    return *locales_[locale];  // chpl_getPrivatizedCopy
  }

  /// Algorithm 3's Index with `fn(slot, block)` as the λ, run against
  /// element `i` INSIDE the read section: the one element path.
  /// read()/write() complete their access in `fn`, so value ops stay
  /// correct concurrent with rehome(), whose replaced blocks are
  /// reclaimed (not recycled) after the drain. index() passes an
  /// identity `fn`, so its reference escapes the section — the §III-C
  /// relaxation that does not survive a migration. A value read of a
  /// remote block goes through the block cache when it is enabled; local
  /// blocks take exactly the uncached charging (caching one's own blocks
  /// would only add a copy).
  template <Access kAccess, typename F>
  decltype(auto) with_slot(std::size_t i, F&& fn) {
    constexpr bool is_write = kAccess == Access::kWrite;
    const auto& m = sim::CostModel::get();
    sim::charge(m.rcua_index_ns);
    const std::uint32_t here = cluster_.here();
    PerLocale& p = priv_at(here);
    const std::size_t bidx = i / block_size_;  // line 1
    const std::size_t off = i % block_size_;   // line 2
    // Lines 6/8: RCU_Read with Helper as the λ (under QSBR the thread
    // need only be a participant — the paper's "all threads act as
    // participants").
    reclaim::ReadSection<Policy> section(p.reclaimer);
    Snapshot<T>* s = section.pin(p.global_snapshot);
    sim::charge(m.atomic_load_ns);
    if (rt::FaultPlan* plan = cluster_.fault_plan()) {
      plan->stall_here(here);  // chaos: stall while holding the snapshot
    }
    RCUA_SCHED_POINT("rcua.index.deref_spine");
    if (bidx >= s->num_blocks()) throw_index_out_of_range(i, s->capacity());
    Block<T>* b = s->block(bidx);
    if constexpr (kAccess == Access::kRead) {
      if (b->owner() != here && cache_enabled()) {
        // The fill, on a miss, completes HERE, inside the section: its
        // copy source is the pinned snapshot's block.
        rt::ReadThrough<Block<T>> cache(cluster_, p.cache, s->version());
        auto copy = cache.lookup(bidx, *b, 1);
        if (copy == nullptr) copy = cache.complete(cache.fill(bidx, *b), 1);
        // fn only reads through the slot, so the const_cast is sound.
        return fn(const_cast<T&>(copy[off]), b);
      }
    }
    cluster_.comm().record_access(here, b->owner(), is_write);
    sim::touch_block(b->id(), b->owner() != here, is_write,
                     m.rcua_spine_miss_ns);
    return fn((*b)[off], b);  // line 3
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  std::size_t cache_capacity_;
  std::atomic<std::uint32_t> home_locale_;
  rt::GlobalLock write_lock_;
  /// Blocks every locale's spine holds (capacity()), written under the
  /// write lock: after resize_add's last publish, before resize_remove's
  /// first.
  std::atomic<std::size_t> served_blocks_{0};
  /// One privatized copy per locale, indexed by locale id.
  std::vector<std::unique_ptr<PerLocale>> locales_;
  std::atomic<std::uint64_t> resizes_{0};
  std::atomic<std::uint64_t> broadcast_retries_{0};
  std::atomic<std::uint64_t> stalled_spines_{0};
  std::atomic<std::uint64_t> rehomes_{0};
  std::atomic<std::uint64_t> rehome_rollbacks_{0};
};

}  // namespace rcua
