#pragma once

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

#include "core/rcu_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace rcua::svc {

/// The elastic sharded-service layer (DESIGN.md §14): key ranges map
/// onto RCUArray-backed shards. A ShardedCollection is a drop-in backend
/// for the containers (same constructor shape and method subset as
/// RCUArray), so DistVector / DistHashMap / DistIdTable become shard
/// clients by swapping one template argument.
///
/// Layout: global block g lives in shard `g % shard_count` at local
/// block `g / shard_count` (block-cyclic), so growth lands one block per
/// shard per stride and every shard stays within one block of balanced.
/// Each shard is an RCUArray pinned to a single home locale
/// (Options::home_locale), which is what makes live migration a
/// wholesale move: `migrate(shard, dst)` copies the shard's blocks to
/// `dst` through the §10 async comm path (RCUArray::rehome), then records
/// `dst` in the placement table. Routing an element op is block-cyclic
/// arithmetic (its routed_remote count reads the target shard's own
/// home), so a sharded element op pays exactly one read section: the
/// shard's.
///
/// Placement (home_of, map_version, the PressureMonitor) is a plain
/// table owned by the collection: one relaxed atomic locale id per shard
/// and a version, written only under the remap lock. No element op reads
/// it and its entries are values, so it needs no RCU publication: a
/// concurrent reader sees the old or the new locale id, never freed
/// memory.
///
/// Ordering rule (§14): migrate -> invalidate -> drain, all inside
/// rehome(), which owns copy-before-publish and the BlockCache
/// invalidation interlock. The remap lock serializes migrations against
/// structural growth (resize_add), which is the serialization the rehome
/// copy phase's concurrency contract requires.
template <typename T, typename Policy = QsbrPolicy>
class ShardedCollection {
 public:
  struct Options {
    /// First two members mirror RCUArray::Options so the containers'
    /// braced `{options.block_size, options.qsbr}` construction works
    /// unchanged against either backend.
    std::size_t block_size = 1024;
    reclaim::Qsbr* qsbr = nullptr;
    /// Number of shards; 0 defers to RCUA_SHARD_COUNT (itself defaulting
    /// to the cluster's locale count — one shard per locale).
    std::size_t shard_count = 0;
    /// Forwarded to every shard's RCUArray (see RCUArray::Options).
    std::size_t cache_capacity_bytes =
        RCUArray<T, Policy>::Options::kCacheCapacityFromEnv;
  };

  using Backend = RCUArray<T, Policy>;
  using BulkOptions = typename Backend::BulkOptions;

  static constexpr bool uses_qsbr = Policy::is_qsbr;

  ShardedCollection(rt::Cluster& cluster, std::size_t initial_capacity = 0,
                    Options options = {})
      : cluster_(cluster),
        block_size_(options.block_size),
        shard_count_(resolve_shard_count(options.shard_count, cluster)),
        routed_("rcua.service.routed", cluster.num_locales(), obs::Agg::kSum),
        routed_remote_("rcua.service.routed_remote", cluster.num_locales(),
                       obs::Agg::kSum),
        home_(shard_count_) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (shard_count_ == 0) throw std::invalid_argument("shard_count == 0");
    shards_.reserve(shard_count_);
    for (std::size_t s = 0; s < shard_count_; ++s) {
      // Initial placement: shard s homed on locale s % num_locales — the
      // balanced block-cyclic start the PressureMonitor perturbs from.
      const auto home = static_cast<std::uint32_t>(s % cluster.num_locales());
      home_[s].store(home, std::memory_order_relaxed);
      typename Backend::Options shard_opts;
      shard_opts.block_size = block_size_;
      shard_opts.qsbr = options.qsbr;
      shard_opts.cache_capacity_bytes = options.cache_capacity_bytes;
      shard_opts.home_locale = home;
      shards_.push_back(std::make_unique<Backend>(cluster, /*capacity=*/0,
                                                  shard_opts));
    }
    if (initial_capacity > 0) resize_add(initial_capacity);
  }

  ShardedCollection(const ShardedCollection&) = delete;
  ShardedCollection& operator=(const ShardedCollection&) = delete;

  // -- Element access (block-cyclic route + one shard op) ---------------

  T& index(std::size_t i) {
    const Route r = route(i);
    return shards_[r.shard]->index(r.local);
  }
  T& operator[](std::size_t i) { return index(i); }

  T& at(std::size_t i) {
    if (i >= capacity()) {
      throw std::out_of_range("ShardedCollection::at: index " +
                              std::to_string(i) + " >= capacity " +
                              std::to_string(capacity()));
    }
    return index(i);
  }

  plat::element_value_t<T> read(std::size_t i) {
    const Route r = route(i);
    return shards_[r.shard]->read(r.local);
  }

  void write(std::size_t i, plat::element_value_t<T> value) {
    const Route r = route(i);
    shards_[r.shard]->write(r.local, std::move(value));
  }

  // -- Bulk operations ---------------------------------------------------

  /// Per-global-block fan-out to the owning shards' aggregated bulk
  /// paths. Within one shard, consecutive global blocks are consecutive
  /// local blocks, so each shard-level call covers the longest contiguous
  /// same-shard stretch of the range (the whole range when
  /// shard_count == 1).
  void bulk_read(std::size_t first, std::size_t count, T* out,
                 BulkOptions opts = {}) {
    for_each_span(first, count, [&](std::size_t shard, std::size_t local,
                                    std::size_t global, std::size_t len) {
      shards_[shard]->bulk_read(local, len, out + (global - first), opts);
    });
  }

  [[nodiscard]] std::vector<T> bulk_read(std::size_t first, std::size_t count,
                                         BulkOptions opts = {}) {
    std::vector<T> out(count);
    bulk_read(first, count, out.data(), opts);
    return out;
  }

  void bulk_write(std::size_t first, std::span<const T> values,
                  BulkOptions opts = {}) {
    for_each_span(
        first, values.size(),
        [&](std::size_t shard, std::size_t local, std::size_t global,
            std::size_t len) {
          shards_[shard]->bulk_write(local,
                                     values.subspan(global - first, len),
                                     opts);
        });
  }

  // -- Growth ------------------------------------------------------------

  /// Grows total capacity by ceil(num_elements / block_size) blocks,
  /// dealt block-cyclically across the shards. Serialized with
  /// migrations by the remap lock (each shard's resize_add additionally
  /// takes the cluster WriteLock, like any RCUArray resize).
  void resize_add(std::size_t num_elements) {
    const std::size_t nblocks =
        (num_elements + block_size_ - 1) / block_size_;
    if (nblocks == 0) return;
    std::lock_guard<std::mutex> guard(remap_mu_);
    add_blocks(nblocks);
  }

  /// RCUArray::reserve's rule over the total block count: when
  /// capacity() < n, one resize_add to the first doubling that covers
  /// `n`. Throws std::length_error when no doubling does.
  void reserve(std::size_t n) {
    if (capacity() >= n) return;
    std::lock_guard<std::mutex> guard(remap_mu_);
    const std::size_t have = total_blocks_.load(std::memory_order_relaxed);
    const std::size_t want = reserve_blocks(have, n, block_size_);
    if (want != have) add_blocks(want - have);
  }

  // -- Live migration ----------------------------------------------------

  /// Moves shard `shard` to locale `dst`: block copy + spine swap via
  /// RCUArray::rehome (which owns copy-before-publish, the BlockCache
  /// invalidation interlock, and the reader drain), then records `dst` in
  /// the placement table. Moving a shard to the home its blocks and the
  /// table already name is a no-op: nothing is copied, recorded or
  /// counted. Returns false when a FaultPlan kKillLocale fault rolled the
  /// copy back — the old placement stays and no element was lost or
  /// duplicated.
  bool migrate(std::size_t shard, std::uint32_t dst) {
    check_shard(shard, "migrate");
    obs::TraceSpan span("svc.migrate", "service", dst);
    std::lock_guard<std::mutex> guard(remap_mu_);
    Backend& b = *shards_[shard];
    if (b.home_locale() == dst && home_of(shard) == dst) return true;
    const std::size_t blocks = b.num_blocks();
    if (!b.rehome(dst)) {
      migration_rollbacks_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    set_home(shard, dst);
    migrations_.fetch_add(1, std::memory_order_relaxed);
    migrated_blocks_.fetch_add(blocks, std::memory_order_relaxed);
    return true;
  }

  /// Records shard -> dst in the placement table WITHOUT moving blocks:
  /// the pure remap, which migrate() also performs once the copy lands.
  /// Element routing follows the blocks, not the table, so after a pure
  /// remap home_of(shard) and shard(shard).home_locale() disagree.
  void remap(std::size_t shard, std::uint32_t dst) {
    check_shard(shard, "remap");
    std::lock_guard<std::mutex> guard(remap_mu_);
    set_home(shard, dst);
  }

  // -- Introspection -----------------------------------------------------

  [[nodiscard]] std::size_t capacity() const {
    return total_blocks_.load(std::memory_order_acquire) * block_size_;
  }
  [[nodiscard]] std::size_t num_blocks() const {
    return total_blocks_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  /// Sum of the shards' resize counts (the DistHashMap growths() feed).
  [[nodiscard]] std::uint64_t resize_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->resize_count();
    return n;
  }
  /// The underlying shard (tests, PressureMonitor).
  [[nodiscard]] Backend& shard(std::size_t s) { return *shards_[s]; }
  /// Shard `s`'s home in the placement table: where the last migrate()
  /// moved it or the last remap() pointed it. Throws
  /// std::invalid_argument for s >= shard_count().
  [[nodiscard]] std::uint32_t home_of(std::size_t s) const {
    check_shard(s, "home_of");
    return home_[s].load(std::memory_order_relaxed);
  }
  /// Placement-table version: 0 at construction, +1 per remap or
  /// completed migration.
  [[nodiscard]] std::uint64_t map_version() const noexcept {
    return map_version_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t migration_rollbacks() const noexcept {
    return migration_rollbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t remaps() const noexcept {
    return remaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t migrated_blocks() const noexcept {
    return migrated_blocks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t routed() const noexcept {
    return routed_.value();
  }
  /// Element ops whose target shard's blocks (RCUArray::home_locale)
  /// were off the calling locale when routed.
  [[nodiscard]] std::uint64_t routed_remote() const noexcept {
    return routed_remote_.value();
  }
  [[nodiscard]] rt::Cluster& cluster() noexcept { return cluster_; }

 private:
  struct Route {
    std::size_t shard;
    std::size_t local;
  };

  static std::size_t resolve_shard_count(std::size_t opt,
                                         rt::Cluster& cluster) {
    if (opt != 0) return opt;
    return static_cast<std::size_t>(
        util::env_u64("RCUA_SHARD_COUNT", cluster.num_locales()));
  }

  void check_shard(std::size_t s, const char* op) const {
    if (s >= shard_count_) {
      throw std::invalid_argument(std::string(op) + ": shard out of range");
    }
  }

  /// Block-cyclic routing + the routing metrics: one routed count per
  /// element op, routed_remote when the target shard's blocks live off
  /// the calling locale. The home comes from the shard itself, not the
  /// placement table: the op goes to shards_[shard] whatever the table
  /// says, and after a pure remap the counter follows the blocks rather
  /// than the table.
  Route route(std::size_t i) {
    const std::size_t g = i / block_size_;
    const std::size_t shard = g % shard_count_;
    const std::size_t local =
        (g / shard_count_) * block_size_ + (i % block_size_);
    const std::uint32_t here = cluster_.here();
    routed_.add_at(here);
    if (shards_[shard]->home_locale() != here) routed_remote_.add_at(here);
    return Route{shard, local};
  }

  /// Decomposes [first, first+count) into maximal spans that stay inside
  /// one shard's contiguous local range; calls
  /// fn(shard, local_first, global_first, len) per span.
  template <typename F>
  void for_each_span(std::size_t first, std::size_t count, F&& fn) {
    if (count == 0) return;
    if (first + count < first || first + count > capacity()) {
      throw std::out_of_range("ShardedCollection: bulk range beyond capacity");
    }
    std::size_t i = first;
    const std::size_t end = first + count;
    while (i < end) {
      const std::size_t g = i / block_size_;
      const std::size_t shard = g % shard_count_;
      std::size_t span_end = std::min(end, (g + 1) * block_size_);
      if (shard_count_ == 1) span_end = end;
      const std::size_t local =
          (g / shard_count_) * block_size_ + (i % block_size_);
      fn(shard, local, i, span_end - i);
      i = span_end;
    }
  }

  /// resize_add's body; the caller holds remap_mu_.
  void add_blocks(std::size_t nblocks) {
    const std::size_t base = total_blocks_.load(std::memory_order_relaxed);
    std::vector<std::size_t> grow(shard_count_, 0);
    for (std::size_t k = 0; k < nblocks; ++k) {
      grow[(base + k) % shard_count_] += 1;
    }
    for (std::size_t s = 0; s < shard_count_; ++s) {
      if (grow[s] != 0) shards_[s]->resize_add(grow[s] * block_size_);
    }
    // Release pairs with capacity()'s acquire: a capacity the caller
    // observes is backed by fully published shard resizes.
    total_blocks_.store(base + nblocks, std::memory_order_release);
  }

  /// The placement write: two relaxed stores, serialized by remap_mu_
  /// (the caller holds it).
  void set_home(std::size_t shard, std::uint32_t dst) {
    home_[shard].store(dst, std::memory_order_relaxed);
    map_version_.store(map_version_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    remaps_.fetch_add(1, std::memory_order_relaxed);
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  std::size_t shard_count_;
  std::vector<std::unique_ptr<Backend>> shards_;
  std::atomic<std::size_t> total_blocks_{0};
  /// Serializes migrations, remaps and collection-level growth.
  std::mutex remap_mu_;
  /// This collection's routing counters, striped by locale (route()).
  obs::Counter routed_;
  obs::Counter routed_remote_;
  /// Written under remap_mu_.
  std::atomic<std::uint64_t> remaps_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> migration_rollbacks_{0};
  std::atomic<std::uint64_t> migrated_blocks_{0};
  /// Placement: shard -> home locale, written only under remap_mu_.
  /// Declared after the fields route() reads, which it never touches.
  std::vector<std::atomic<std::uint32_t>> home_;
  std::atomic<std::uint64_t> map_version_{0};
};

}  // namespace rcua::svc
