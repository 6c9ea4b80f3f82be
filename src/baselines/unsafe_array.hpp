#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block.hpp"
#include "platform/atomics.hpp"
#include "runtime/cluster.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace rcua::baseline {

/// The paper's ChapelArray / UnsafeArray: a naive block-distributed array
/// in the style of Chapel's BlockDist. Reads and updates are concurrent
/// (they are plain memory operations) but resizing is NOT parallel-safe —
/// a resize reallocates the storage and copies every element into it,
/// which is precisely the work RCUArray's recycling clone avoids and the
/// source of the 4x resize gap in Figure 3.
///
/// Access charges Chapel's dsiAccess translation overhead on top of the
/// element touch; there is no privatized metadata chain, so no spine-miss
/// surcharge (the block-dist target address is computed directly).
template <typename T>
class UnsafeArray {
 public:
  UnsafeArray(rt::Cluster& cluster, std::size_t initial_capacity = 0,
              std::size_t block_size = 1024)
      : cluster_(cluster), block_size_(block_size) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (initial_capacity > 0) resize_add(initial_capacity);
  }

  ~UnsafeArray() { release_blocks(blocks_); }

  UnsafeArray(const UnsafeArray&) = delete;
  UnsafeArray& operator=(const UnsafeArray&) = delete;

  T& index(std::size_t i) { return index_rw(i, false); }
  T& operator[](std::size_t i) { return index_rw(i, false); }

  T& at(std::size_t i) {
    if (i >= capacity()) {
      throw std::out_of_range("UnsafeArray::at: index " + std::to_string(i) +
                              " >= capacity " + std::to_string(capacity()));
    }
    return index_rw(i, false);
  }

  /// Same relaxed element contract as RCUArray::read/write: concurrent
  /// access to one index is defined for machine-word T (what makes this
  /// baseline "unsafe" is resize, not element access).
  T read(std::size_t i) { return plat::relaxed_load(index_rw(i, false)); }
  void write(std::size_t i, T value) {
    plat::relaxed_store(index_rw(i, true), std::move(value));
  }

  /// Grows by `num_elements` (whole blocks): reallocates the full storage
  /// and copies every existing element — Chapel's domain-reassignment
  /// resize, which is several cluster-wide phases: (1) broadcast the new
  /// domain, (2) allocate the replacement array on every locale, (3) copy
  /// the old contents across, (4) publish and free the old storage. The
  /// repeated all-locale phases plus the deep copy are exactly the work
  /// RCUArray's recycling clone avoids (Figure 3's >= 4x gap).
  /// NOT safe concurrently with any other operation.
  void resize_add(std::size_t num_elements) {
    if (num_elements == 0) return;
    const std::size_t added =
        (num_elements + block_size_ - 1) / block_size_;
    const auto& m = sim::CostModel::get();
    const std::size_t old_count = blocks_.size();
    const std::size_t new_count = old_count + added;

    // Phase 1: domain reassignment — every locale learns the new bounds.
    cluster_.coforall_locales(
        [&](std::uint32_t) { sim::charge(m.atomic_load_ns); });

    // Phase 2: allocate the replacement storage, block-cyclic as before;
    // each locale allocates its own blocks.
    std::vector<Block<T>*> fresh(new_count, nullptr);
    cluster_.coforall_locales([&](std::uint32_t l) {
      for (std::size_t k = l; k < new_count;
           k += cluster_.num_locales()) {
        fresh[k] = Block<T>::create(cluster_.locale(l), block_size_);
        sim::charge(m.alloc_block_ns);
      }
    });

    // Phase 3: copy — every locale copies the old blocks it now owns.
    cluster_.coforall_locales([&](std::uint32_t l) {
      for (std::size_t k = 0; k < old_count; ++k) {
        if (fresh[k]->owner() != l) continue;
        std::memcpy(static_cast<void*>(fresh[k]->data()),
                    static_cast<const void*>(blocks_[k]->data()),
                    block_size_ * sizeof(T));
        sim::charge(m.bulk_copy_ns_per_elem *
                    static_cast<double>(block_size_));
      }
    });

    // Phase 4: publish the new array and release the old storage.
    cluster_.coforall_locales([&](std::uint32_t l) {
      for (std::size_t k = l; k < old_count; k += cluster_.num_locales()) {
        sim::charge(m.atomic_load_ns);
      }
    });
    release_blocks(blocks_);
    blocks_ = std::move(fresh);
    next_locale_ = new_count % cluster_.num_locales();
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return blocks_.size() * block_size_;
  }
  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] std::uint32_t block_owner(std::size_t i) const {
    return blocks_[i / block_size_]->owner();
  }
  [[nodiscard]] rt::Cluster& cluster() noexcept { return cluster_; }

 private:
  static_assert(std::is_trivially_copyable_v<T>,
                "UnsafeArray's copy-resize uses memcpy");

  T& index_rw(std::size_t i, bool is_write) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.chapel_dsi_ns);
    const std::size_t bidx = i / block_size_;
    const std::size_t off = i % block_size_;
    assert(bidx < blocks_.size());
    Block<T>* b = blocks_[bidx];
    const std::uint32_t here = cluster_.here();
    cluster_.comm().record_access(here, b->owner(), is_write);
    sim::touch_block(b->id(), b->owner() != here, is_write);
    return (*b)[off];
  }

  void release_blocks(std::vector<Block<T>*>& blocks) {
    for (Block<T>* b : blocks) {
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      delete b;
    }
    blocks.clear();
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  std::vector<Block<T>*> blocks_;
  std::uint32_t next_locale_ = 0;
};

}  // namespace rcua::baseline
