#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"

namespace rcua {

/// A DSI-flavored array: the paper's last future-work item is
/// "compatibility of RCUArray and Chapel's Domain map Standard Interface
/// ... to provide users with a parallel-safe resizable distribution".
/// DsiArray is that interface in library form — a *logical* dense index
/// space [0, size()) with a block-cyclic layout over the cluster, backed
/// by an RCUArray whose whole-block growth is hidden behind element-wise
/// semantics:
///
///  * `resize(n)` sets the logical size to any element count (the backing
///    array grows/shrinks by whole blocks underneath, parallel-safely);
///  * `forall(fn)` runs fn(i, elem) for every logical index, one task per
///    locale, each iterating only its locally-owned blocks;
///  * domain queries (`owner_of`, `local_indices`) expose the layout the
///    way Chapel dmaps do.
///
/// Resizing is serialized against itself (internal lock) but concurrent
/// with element access, exactly like the backing RCUArray. `forall`
/// captures the logical size at entry.
template <typename T, typename Policy = QsbrPolicy>
class DsiArray {
 public:
  using Options = typename RCUArray<T, Policy>::Options;

  DsiArray(rt::Cluster& cluster, std::size_t size, Options options = {})
      : arr_(cluster, size, options), size_(size) {}

  DsiArray(const DsiArray&) = delete;
  DsiArray& operator=(const DsiArray&) = delete;

  // -- Element access ----------------------------------------------------

  T& operator[](std::size_t i) {
    assert(i < size_.value.load(std::memory_order_acquire));
    return arr_.index(i);
  }

  T& at(std::size_t i) {
    check_index(i);
    return arr_.index(i);
  }

  /// Value ops, through the backing array's: the access stays inside its
  /// read section, and write() bumps the block's write generation, so no
  /// locale's cached copy outlives the store (DESIGN.md §11).
  plat::element_value_t<T> read(std::size_t i) {
    check_index(i);
    return arr_.read(i);
  }
  void write(std::size_t i, plat::element_value_t<T> value) {
    check_index(i);
    arr_.write(i, std::move(value));
  }

  // -- Domain shape -------------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.value.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return arr_.capacity(); }
  [[nodiscard]] std::size_t block_size() const noexcept {
    return arr_.block_size();
  }

  /// The locale owning logical index `i`.
  [[nodiscard]] std::uint32_t owner_of(std::size_t i) const {
    return arr_.block_owner(i);
  }

  /// The index ranges [first, last) of `locale`'s locally-owned elements,
  /// in ascending order — Chapel's localSubdomain. Each block's actual
  /// owner decides, as in owner_of: a regrow after a shrink does not
  /// restart the round-robin at locale 0.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  local_indices(std::uint32_t locale) const {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const std::size_t bs = arr_.block_size();
    const std::size_t n = size();
    for (std::size_t start = 0; start < n; start += bs) {
      if (owner_of(start) == locale) {
        ranges.emplace_back(start, std::min(start + bs, n));
      }
    }
    return ranges;
  }

  /// Grows or shrinks the logical size. Growth allocates whole blocks as
  /// needed; shrink releases whole trailing blocks once the logical size
  /// has left them.
  void resize(std::size_t new_size) {
    std::lock_guard<std::mutex> guard(resize_mu_);
    const std::size_t bs = arr_.block_size();
    if (new_size > arr_.capacity()) {
      arr_.resize_add(new_size - arr_.capacity());
    }
    size_.value.store(new_size, std::memory_order_release);
    // Whole blocks now entirely beyond the logical size can go.
    const std::size_t needed_blocks = (new_size + bs - 1) / bs;
    const std::size_t have_blocks = arr_.num_blocks();
    if (have_blocks > needed_blocks) {
      arr_.resize_remove((have_blocks - needed_blocks) * bs);
    }
  }

  // -- Parallel iteration --------------------------------------------------

  /// fn(global_index, T&) for every logical element; one task per locale,
  /// each visiting only locally-owned blocks (Chapel's forall over a
  /// distributed domain). The iteration space is the logical size at
  /// entry. `fn` may write the element: with the cache on, each visited
  /// block's generation is bumped afterwards (DESIGN.md §11).
  template <typename F>
  void forall(F&& fn) {
    const std::size_t n = size();
    const std::size_t bs = arr_.block_size();
    arr_.for_each_block_local([&](std::size_t b, Block<T>& blk) {
      const std::size_t base = b * bs;
      if (base >= n) return;
      const std::size_t limit = std::min(bs, n - base);
      for (std::size_t i = 0; i < limit; ++i) {
        fn(base + i, blk[i]);
      }
      if (arr_.cache_enabled()) blk.bump_generation();
    });
  }

  /// Parallel fold over the logical elements: the backing array's
  /// reduce, bounded by the logical size at entry. `init` must be an
  /// identity of `fn` and `combine`.
  template <typename R, typename Fold, typename Combine>
  [[nodiscard]] R reduce(R init, Fold&& fn, Combine&& combine) {
    return arr_.reduce(std::move(init), std::forward<Fold>(fn),
                       std::forward<Combine>(combine), size());
  }

  [[nodiscard]] rt::Cluster& cluster() const noexcept {
    return const_cast<RCUArray<T, Policy>&>(arr_).cluster();
  }
  [[nodiscard]] RCUArray<T, Policy>& backing() noexcept { return arr_; }

 private:
  void check_index(std::size_t i) const {
    if (i >= size()) throw std::out_of_range("DsiArray: index beyond size");
  }

  RCUArray<T, Policy> arr_;
  plat::CacheAligned<std::atomic<std::size_t>> size_{std::size_t{0}};
  std::mutex resize_mu_;
};

}  // namespace rcua
