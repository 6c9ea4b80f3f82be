#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <optional>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/align.hpp"
#include "platform/backoff.hpp"
#include "platform/rng.hpp"

namespace rcua::cont {

/// Distributed bucket-chained hash map backed by RCUArray — the
/// "distributed table" of the paper's conclusion.
///
/// Layout: one RCUArray<Slot> slab. The first `num_buckets` slots are the
/// bucket heads; collision chains link through overflow slots allocated
/// from the tail of the slab by a bump cursor. When the slab runs out,
/// the backend's reserve() grows it — which is the whole point: *the
/// table keeps serving lookups and inserts during growth*, because
/// RCUArray's resize is parallel-safe and chains address slots by index,
/// which block recycling keeps stable across snapshots (Lemma 6).
///
/// Keys and values must be trivially copyable and at most 8 bytes (they
/// are stored in atomics). Erase uses tombstones that a matching
/// re-insert revives; chains never shrink.
///
/// `Backend` is the storage engine for the slab: RCUArray (default) or
/// svc::ShardedCollection, which makes the map a shard client — chains
/// still address slots by index, and the sharded backend's block-cyclic
/// routing keeps those indices stable across remaps and migrations for
/// the same reason Lemma 6 keeps them stable across resizes.
template <typename K, typename V, typename Policy = QsbrPolicy,
          template <typename, typename> class Backend = RCUArray>
class DistHashMap {
  static_assert(std::is_trivially_copyable_v<K> && sizeof(K) <= 8,
                "keys are stored in 64-bit atomics");
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) <= 8,
                "values are stored in 64-bit atomics");

 public:
  struct Options {
    std::size_t num_buckets = 1024;
    std::size_t block_size = 1024;
    reclaim::Qsbr* qsbr = nullptr;
  };

  explicit DistHashMap(rt::Cluster& cluster, Options options = {})
      : num_buckets_(options.num_buckets),
        slots_(cluster,
               /*initial_capacity=*/options.num_buckets + options.block_size,
               {options.block_size, options.qsbr}) {
    cursor_->store(num_buckets_, std::memory_order_relaxed);
  }

  DistHashMap(const DistHashMap&) = delete;
  DistHashMap& operator=(const DistHashMap&) = delete;

  /// Inserts or updates. Returns true iff the key was new. Parallel-safe,
  /// including with concurrent growth.
  bool insert(const K& key, const V& value) {
    const std::uint64_t ek = encode(key);
    const std::uint64_t ev = encode(value);
    std::size_t cur = bucket_of(ek);
    plat::Backoff backoff(4);
    for (;;) {
      Slot& s = slots_.index(cur);
      std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kEmpty) {
        std::uint32_t expected = kEmpty;
        if (s.state.compare_exchange_strong(expected, kClaimed,
                                            std::memory_order_acq_rel)) {
          s.key.store(ek, std::memory_order_relaxed);
          s.value.store(ev, std::memory_order_relaxed);
          s.state.store(kFull, std::memory_order_release);
          count_->fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        continue;  // lost the claim; re-examine the slot
      }
      if (st == kClaimed) {
        backoff.pause();  // publisher is between claim and kFull
        continue;
      }
      // kFull or kTombstone: the key field is valid.
      if (s.key.load(std::memory_order_relaxed) == ek) {
        if (st == kTombstone) {
          std::uint32_t expected = kTombstone;
          if (!s.state.compare_exchange_strong(expected, kClaimed,
                                               std::memory_order_acq_rel)) {
            continue;  // raced with another revive/erase
          }
          s.value.store(ev, std::memory_order_relaxed);
          s.state.store(kFull, std::memory_order_release);
          count_->fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        s.value.store(ev, std::memory_order_release);
        return false;
      }
      // Different key: follow or extend the chain.
      const std::uint64_t nx = s.next.load(std::memory_order_acquire);
      if (nx != 0) {
        cur = static_cast<std::size_t>(nx - 1);
        continue;
      }
      const std::size_t fresh = alloc_slot();
      Slot& f = slots_.index(fresh);
      f.key.store(ek, std::memory_order_relaxed);
      f.value.store(ev, std::memory_order_relaxed);
      f.state.store(kFull, std::memory_order_release);
      std::uint64_t expected = 0;
      if (s.next.compare_exchange_strong(expected, fresh + 1,
                                         std::memory_order_acq_rel)) {
        count_->fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Another inserter linked first: unpublish our slot, recycle it,
      // and continue down the chain they created.
      f.state.store(kEmpty, std::memory_order_relaxed);
      recycle_slot(fresh);
      cur = static_cast<std::size_t>(expected - 1);
    }
  }

  /// Lookup. Parallel-safe with inserts, erases and growth.
  std::optional<V> find(const K& key) {
    const std::uint64_t ek = encode(key);
    std::size_t cur = bucket_of(ek);
    plat::Backoff backoff(4);
    for (;;) {
      Slot& s = slots_.index(cur);
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kEmpty) return std::nullopt;  // an empty head ends a chain
      if (st == kClaimed) {
        backoff.pause();
        continue;
      }
      if (st == kFull && s.key.load(std::memory_order_relaxed) == ek) {
        return decode<V>(s.value.load(std::memory_order_acquire));
      }
      const std::uint64_t nx = s.next.load(std::memory_order_acquire);
      if (nx == 0) return std::nullopt;
      cur = static_cast<std::size_t>(nx - 1);
    }
  }

  [[nodiscard]] bool contains(const K& key) { return find(key).has_value(); }

  /// Removes the key (tombstone). Returns true iff it was present.
  bool erase(const K& key) {
    const std::uint64_t ek = encode(key);
    std::size_t cur = bucket_of(ek);
    plat::Backoff backoff(4);
    for (;;) {
      Slot& s = slots_.index(cur);
      const std::uint32_t st = s.state.load(std::memory_order_acquire);
      if (st == kEmpty) return false;
      if (st == kClaimed) {
        backoff.pause();
        continue;
      }
      if (s.key.load(std::memory_order_relaxed) == ek) {
        if (st == kTombstone) return false;
        std::uint32_t expected = kFull;
        if (s.state.compare_exchange_strong(expected, kTombstone,
                                            std::memory_order_acq_rel)) {
          count_->fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
        continue;
      }
      const std::uint64_t nx = s.next.load(std::memory_order_acquire);
      if (nx == 0) return false;
      cur = static_cast<std::size_t>(nx - 1);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return count_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return num_buckets_;
  }
  [[nodiscard]] std::size_t slab_capacity() const { return slots_.capacity(); }
  [[nodiscard]] std::uint64_t growths() const {
    return slots_.resize_count();
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kClaimed = 1;
  static constexpr std::uint32_t kFull = 2;
  static constexpr std::uint32_t kTombstone = 3;

  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> next{0};  // 0 = null, else slot index + 1
  };

  template <typename X>
  static std::uint64_t encode(const X& x) noexcept {
    std::uint64_t out = 0;
    std::memcpy(&out, &x, sizeof(X));
    return out;
  }
  template <typename X>
  static X decode(std::uint64_t bits) noexcept {
    X out{};
    std::memcpy(&out, &bits, sizeof(X));
    return out;
  }

  [[nodiscard]] std::size_t bucket_of(std::uint64_t ek) const noexcept {
    return static_cast<std::size_t>(plat::mix64(ek) % num_buckets_);
  }

  std::size_t alloc_slot() {
    {
      std::lock_guard<std::mutex> guard(recycle_mu_);
      if (!recycled_.empty()) {
        const std::size_t idx = recycled_.back();
        recycled_.pop_back();
        return idx;
      }
    }
    const std::size_t idx = cursor_->fetch_add(1, std::memory_order_acq_rel);
    // Every locale serves the slot before any chain can link it, so a
    // reader that follows the link finds it in bounds on its locale.
    slots_.reserve(idx + 1);
    return idx;
  }

  void recycle_slot(std::size_t idx) {
    std::lock_guard<std::mutex> guard(recycle_mu_);
    recycled_.push_back(idx);
  }

  std::size_t num_buckets_;
  Backend<Slot, Policy> slots_;
  plat::CacheAligned<std::atomic<std::size_t>> cursor_{std::size_t{0}};
  plat::CacheAligned<std::atomic<std::size_t>> count_{std::size_t{0}};
  std::mutex recycle_mu_;
  std::vector<std::size_t> recycled_;

 public:
  /// The backing slab — exposed so shard-client tests can drive the
  /// sharded backend's remap surface directly (callers bind it with
  /// `auto&`; the slot type is an implementation detail).
  [[nodiscard]] Backend<Slot, Policy>& backing() noexcept { return slots_; }
};

}  // namespace rcua::cont
