#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/align.hpp"

namespace rcua::cont {

/// Distributed id-allocating slab table: hand it a value, it hands back a
/// stable dense id; ids are recycled on release. The "distributed table"
/// application of the paper's conclusion in its simplest useful form —
/// a registry/descriptor table whose storage grows in parallel with
/// lookups (think connection tables, object registries, handle spaces).
///
/// Lookups are RCUArray reads (parallel-safe with growth); allocation
/// reserves ids with a fetch-add fast path and falls back to a mutexed
/// free list for recycled ids.
///
/// `Backend` is the storage engine: RCUArray (default) or
/// svc::ShardedCollection — ids stay stable across shard remaps and
/// migrations because the sharded backend routes by index arithmetic
/// and only re-homes storage, never renumbers it.
template <typename V, typename Policy = QsbrPolicy,
          template <typename, typename> class Backend = RCUArray>
class DistIdTable {
 public:
  struct Options {
    std::size_t block_size = 1024;
    reclaim::Qsbr* qsbr = nullptr;
  };

  explicit DistIdTable(rt::Cluster& cluster, Options options = {})
      : arr_(cluster, options.block_size, {options.block_size, options.qsbr}) {}

  DistIdTable(const DistIdTable&) = delete;
  DistIdTable& operator=(const DistIdTable&) = delete;

  /// Stores `value`, returning its id. Parallel-safe.
  std::size_t allocate(V value) {
    std::size_t id;
    {
      std::lock_guard<std::mutex> guard(free_mu_);
      if (!free_ids_.empty()) {
        id = free_ids_.back();
        free_ids_.pop_back();
        released_[id] = false;
        live_->fetch_add(1, std::memory_order_relaxed);
        arr_.write(id, std::move(value));
        return id;
      }
    }
    id = next_->fetch_add(1, std::memory_order_acq_rel);
    arr_.reserve(id + 1);
    live_->fetch_add(1, std::memory_order_relaxed);
    // In-section store (write, not index): stores stay migration-safe
    // against a concurrent shard rehome of the sharded backend.
    arr_.write(id, std::move(value));
    return id;
  }

  /// Reference to the value behind `id`. Parallel-safe with allocate /
  /// growth. Throws std::out_of_range for an id never allocated
  /// (`id >= high_water()`). The caller must not use an id it has
  /// released. NOT safe concurrent with a live migration of the sharded
  /// backend — the reference escapes the read-side section, which
  /// rehome's reclamation does not cover (use read() for lookups that
  /// may race a migration). A store through the reference leaves
  /// block-cache copies stale: with the cache on, read() on another
  /// locale may keep the old value (RCUArray::index).
  V& get(std::size_t id) {
    check_allocated(id);
    arr_.reserve(id + 1);  // its allocate() may still be growing
    return arr_.index(id);
  }

  /// Value lookup: the migration-safe twin of get(). The copy happens
  /// inside the backend's read-side section, so it is safe concurrent
  /// with shard remaps AND live migrations (rehome reclaims replaced
  /// blocks; escaped references don't survive that, values do).
  V read(std::size_t id) {
    check_allocated(id);
    arr_.reserve(id + 1);
    return arr_.read(id);
  }

  /// Recycles `id`. The slot's value is left in place (callers treat a
  /// released id as invalid). Throws, touching nothing, std::out_of_range
  /// for an id never allocated (`id >= high_water()`) and
  /// std::invalid_argument for an id released and not allocated since.
  void release(std::size_t id) {
    check_allocated(id);
    std::lock_guard<std::mutex> guard(free_mu_);
    if (id < released_.size() && released_[id]) {
      throw std::invalid_argument("DistIdTable: id " + std::to_string(id) +
                                  " is already released");
    }
    if (id >= released_.size()) released_.resize(id + 1, false);
    released_[id] = true;
    free_ids_.push_back(id);
    live_->fetch_sub(1, std::memory_order_relaxed);
  }

  /// Number of currently allocated ids.
  [[nodiscard]] std::size_t live() const noexcept {
    return live_->load(std::memory_order_relaxed);
  }
  /// High-water mark of ids ever allocated.
  [[nodiscard]] std::size_t high_water() const noexcept {
    return next_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return arr_.capacity(); }
  [[nodiscard]] Backend<V, Policy>& backing() noexcept { return arr_; }

 private:
  void check_allocated(std::size_t id) const {
    if (id >= high_water()) {
      throw std::out_of_range("DistIdTable: id " + std::to_string(id) +
                              " was never allocated");
    }
  }

  Backend<V, Policy> arr_;
  plat::CacheAligned<std::atomic<std::size_t>> next_{std::size_t{0}};
  plat::CacheAligned<std::atomic<std::size_t>> live_{std::size_t{0}};
  std::mutex free_mu_;
  std::vector<std::size_t> free_ids_;
  /// released_[id]: `id` is on free_ids_ (sized by the highest release).
  std::vector<bool> released_;
};

}  // namespace rcua::cont
