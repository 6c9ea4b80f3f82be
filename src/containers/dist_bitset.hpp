#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/rcu_array.hpp"

namespace rcua::cont {

/// Distributed, growable atomic bitset over RCUArray<std::atomic<u64>> —
/// set/test/clear are single remote-word atomics, population count is a
/// locality-aware reduction, and capacity grows through the parallel-safe
/// resize (a common building block: distributed allocators, visited sets
/// for graph traversals, bloom-filter backing).
///
/// Bit indices beyond the current capacity are legal for `set`: the
/// bitset grows on demand (whole blocks of words).
template <typename Policy = QsbrPolicy>
class DistBitset {
 public:
  struct Options {
    std::size_t block_size_words = 1024;  // 64 Kbit per block
    reclaim::Qsbr* qsbr = nullptr;
  };

  explicit DistBitset(rt::Cluster& cluster, std::size_t initial_bits = 0,
                      Options options = {})
      : words_(cluster, (initial_bits + 63) / 64,
               {options.block_size_words, options.qsbr}) {}

  DistBitset(const DistBitset&) = delete;
  DistBitset& operator=(const DistBitset&) = delete;

  /// Sets bit `i` (growing if needed); returns the previous value, once
  /// every locale serves the bit's word.
  bool set(std::size_t i) {
    words_.reserve(i / 64 + 1);
    const std::uint64_t mask = 1ULL << (i % 64);
    const std::uint64_t old = words_.index(i / 64).fetch_or(
        mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  /// Clears bit `i`; returns the previous value. A word at or past
  /// capacity() was never set: set() returns only once every locale
  /// serves its word.
  bool clear(std::size_t i) {
    if (i / 64 >= words_.capacity()) return false;
    const std::uint64_t mask = 1ULL << (i % 64);
    const std::uint64_t old = words_.index(i / 64).fetch_and(
        ~mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  /// Tests bit `i`; bits beyond capacity read as false.
  [[nodiscard]] bool test(std::size_t i) {
    if (i / 64 >= words_.capacity()) return false;
    return (words_.index(i / 64).load(std::memory_order_acquire) &
            (1ULL << (i % 64))) != 0;
  }

  /// Atomically sets bit `i` iff it was clear; true on success (CAS-free
  /// claim primitive for allocators).
  bool try_claim(std::size_t i) { return !set(i); }

  /// Population count: locality-aware parallel reduction (RCUArray::reduce),
  /// safe against a concurrent growth.
  [[nodiscard]] std::size_t count() {
    return words_.reduce(
        std::size_t{0},
        [](std::size_t acc, const std::atomic<std::uint64_t>& w) {
          return acc + static_cast<std::size_t>(
                           __builtin_popcountll(w.load(std::memory_order_relaxed)));
        },
        [](std::size_t a, std::size_t b) { return a + b; });
  }

  /// Capacity in bits.
  [[nodiscard]] std::size_t capacity_bits() const {
    return words_.capacity() * 64;
  }

  [[nodiscard]] RCUArray<std::atomic<std::uint64_t>, Policy>& backing() {
    return words_;
  }

 private:
  RCUArray<std::atomic<std::uint64_t>, Policy> words_;
};

}  // namespace rcua::cont
