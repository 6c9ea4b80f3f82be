#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"

namespace rcua::cont {

/// Append-only distributed vector on top of RCUArray — the paper's
/// conclusion names RCUArray as "the ideal backbone for a random-access
/// data structure such as a distributed vector", and this is that vector:
/// `push_back` from any task on any locale, concurrent with reads, with
/// capacity growth happening through RCUArray's parallel-safe resize.
///
/// Semantics: `push_back` reserves an index with one fetch-add on a
/// private reservation counter, has the backend `reserve` it (which
/// returns once every locale serves the index), writes the slot, and only
/// then publishes it by advancing `size_` — in reservation order, with a
/// release store that a reader's `size()` acquires. `size()` therefore
/// counts *fully written* slots: any index below it, on any locale, reads
/// the completed element, with a proper happens-before edge (no torn or
/// default values, no data race).
/// Producers briefly wait for earlier reservations to publish; the gap is
/// the time between a competitor's fetch-add and its slot store.
/// `Backend` is the storage engine: RCUArray (the default, one array
/// with round-robin blocks) or svc::ShardedCollection (block-cyclic
/// shards with live migration — the container becomes a shard client
/// without further changes; both expose the same constructor shape and
/// method subset).
template <typename T, typename Policy = QsbrPolicy,
          template <typename, typename> class Backend = RCUArray>
class DistVector {
 public:
  struct Options {
    std::size_t block_size = 1024;
    reclaim::Qsbr* qsbr = nullptr;
  };

  explicit DistVector(rt::Cluster& cluster, Options options = {})
      : arr_(cluster, /*initial_capacity=*/options.block_size,
             {options.block_size, options.qsbr}) {}

  DistVector(const DistVector&) = delete;
  DistVector& operator=(const DistVector&) = delete;

  /// Appends `value`; returns its index. Parallel-safe (the slot store
  /// is a value write — in-section, so it also stays safe against a
  /// concurrent shard migration of a sharded backend).
  std::size_t push_back(T value) {
    const std::size_t idx =
        reserved_->fetch_add(1, std::memory_order_relaxed);
    arr_.reserve(idx + 1);
    arr_.write(idx, std::move(value));
    return publish(idx, idx + 1);
  }

  /// Appends all of `values` contiguously; returns the index of the
  /// first. Parallel-safe against other producers and readers. The fill
  /// goes through RCUArray::bulk_write — one reservation fetch-add, at
  /// most one growth step per capacity shortfall, one pinned snapshot
  /// and a destination-aggregated drain for the element copies (one
  /// remote execution per destination flush instead of one PUT per
  /// element; flushes pipeline through the async comm layer by default
  /// and their completions drain inside the pinned section, DESIGN.md
  /// §10) — then publishes the whole range with the same in-order
  /// release CAS as push_back, so size() still counts only fully
  /// written slots.
  std::size_t push_back_bulk(std::span<const T> values,
                             typename Backend<T, Policy>::BulkOptions
                                 opts = {}) {
    const std::size_t n = values.size();
    if (n == 0) return size();
    const std::size_t idx =
        reserved_->fetch_add(n, std::memory_order_relaxed);
    arr_.reserve(idx + n);
    arr_.bulk_write(idx, values, opts);
    return publish(idx, idx + n);
  }

  /// Copies elements [first, first+count) (all below size()) into a
  /// fresh vector via RCUArray::bulk_read — the aggregated read-side
  /// counterpart of push_back_bulk.
  [[nodiscard]] std::vector<T> read_range(
      std::size_t first, std::size_t count,
      typename Backend<T, Policy>::BulkOptions opts = {}) {
    if (first + count > size() || first + count < first) {
      throw std::out_of_range("DistVector::read_range beyond size");
    }
    return arr_.bulk_read(first, count, opts);
  }

  /// Reference to element `i` (valid across growth). Parallel-safe: a
  /// reserved index whose growth is still under way is grown to (or
  /// waited for on the backend's growth lock) before the access. Throws
  /// std::out_of_range for an index no push_back has reserved. A store
  /// through the reference leaves block-cache copies stale: with the
  /// cache on, read() on another locale may keep the old value
  /// (RCUArray::index).
  T& operator[](std::size_t i) {
    if (i >= reserved_->load(std::memory_order_relaxed)) {
      throw std::out_of_range("DistVector::operator[] beyond reservations");
    }
    arr_.reserve(i + 1);
    return arr_.index(i);
  }

  T& at(std::size_t i) {
    if (i >= size()) {
      throw std::out_of_range("DistVector::at beyond size");
    }
    return arr_.index(i);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_->load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return arr_.capacity(); }
  [[nodiscard]] Backend<T, Policy>& backing() noexcept { return arr_; }

 private:
  /// Publishes slots [idx, end) in reservation order: they become visible
  /// through size() only once every earlier slot already is, so readers
  /// below size() always see completed writes (the release pairs with the
  /// acquire in size()). Returns idx.
  std::size_t publish(std::size_t idx, std::size_t end) {
    std::size_t expected = idx;
    plat::Backoff backoff(4);
    while (!size_->compare_exchange_weak(expected, end,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
      expected = idx;
      backoff.pause();
    }
    return idx;
  }

  Backend<T, Policy> arr_;
  /// Next index to hand out; may run ahead of `size_` while writes are in
  /// flight.
  plat::CacheAligned<std::atomic<std::size_t>> reserved_{std::size_t{0}};
  /// Published length: every slot below it is fully written.
  plat::CacheAligned<std::atomic<std::size_t>> size_{std::size_t{0}};
};

}  // namespace rcua::cont
