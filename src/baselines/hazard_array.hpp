#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/snapshot.hpp"
#include "reclaim/hazard.hpp"
#include "runtime/global_lock.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace rcua::baseline {

/// Hazard-pointer-protected resizable block array: the reclamation
/// alternative the paper's introduction weighs and rejects for the
/// read-mostly case ("a balanced but noticeable overhead to both read and
/// write operations ... unsuitable when the performance of reads is far
/// more important"). Each read publishes the snapshot pointer to a hazard
/// slot and re-validates it — two ordered memory operations per access —
/// before touching the element. Used by the reclaimer ablation bench.
///
/// Single shared spine (no per-locale privatization): part of what the
/// ablation shows is the cost of *not* having RCUArray's replicated
/// metadata.
template <typename T>
class HazardArray {
 public:
  HazardArray(rt::Cluster& cluster, std::size_t initial_capacity = 0,
              std::size_t block_size = 1024,
              reclaim::HazardDomain* domain = nullptr)
      : cluster_(cluster),
        block_size_(block_size),
        domain_(domain != nullptr ? domain : &reclaim::HazardDomain::global()),
        write_lock_(cluster, 0),
        snapshot_(new Snapshot<T>()) {
    if (block_size_ == 0) throw std::invalid_argument("block_size == 0");
    if (initial_capacity > 0) resize_add(initial_capacity);
  }

  ~HazardArray() {
    Snapshot<T>* s = snapshot_.load(std::memory_order_acquire);
    for (Block<T>* b : s->blocks()) {
      cluster_.locale(b->owner()).note_free(b->capacity() * sizeof(T));
      delete b;
    }
    delete s;
  }

  HazardArray(const HazardArray&) = delete;
  HazardArray& operator=(const HazardArray&) = delete;

  T read(std::size_t i) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.rcua_index_ns + 2 * m.atomic_rmw_ns);  // publish+validate
    reclaim::HazardDomain::Guard<Snapshot<T>> guard(*domain_, snapshot_);
    return element(*guard.get(), i, false);
  }

  void write(std::size_t i, T value) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.rcua_index_ns + 2 * m.atomic_rmw_ns);
    reclaim::HazardDomain::Guard<Snapshot<T>> guard(*domain_, snapshot_);
    element(*guard.get(), i, true) = std::move(value);
  }

  void resize_add(std::size_t num_elements) {
    if (num_elements == 0) return;
    const std::size_t nblocks =
        (num_elements + block_size_ - 1) / block_size_;
    const auto& m = sim::CostModel::get();
    std::vector<Block<T>*> new_blocks;
    new_blocks.reserve(nblocks);
    std::lock_guard<rt::GlobalLock> guard(write_lock_);
    std::uint32_t loc = next_locale_;
    for (std::size_t k = 0; k < nblocks; ++k) {
      cluster_.comm().record_execute(cluster_.here(), loc);
      new_blocks.push_back(Block<T>::create(cluster_.locale(loc), block_size_));
      sim::charge(m.alloc_block_ns);
      loc = (loc + 1) % cluster_.num_locales();
    }
    next_locale_ = loc;
    Snapshot<T>* old = snapshot_.load(std::memory_order_relaxed);
    Snapshot<T>* fresh =
        Snapshot<T>::successor(*old, old->num_blocks(), new_blocks);
    snapshot_.store(fresh, std::memory_order_release);
    domain_->retire(old);  // freed once no hazard slot protects it
  }

  [[nodiscard]] std::size_t capacity() {
    reclaim::HazardDomain::Guard<Snapshot<T>> guard(*domain_, snapshot_);
    return guard.get()->capacity();
  }

  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

 private:
  T& element(Snapshot<T>& s, std::size_t i, bool is_write) {
    const std::size_t bidx = i / block_size_;
    const std::size_t off = i % block_size_;
    Block<T>* b = s.block(bidx);
    const std::uint32_t here = cluster_.here();
    cluster_.comm().record_access(here, b->owner(), is_write);
    // Same snapshot-spine indirection as RCUArray (and unlike BlockDist's
    // direct address computation).
    sim::touch_block(b->id(), b->owner() != here, is_write,
                     sim::CostModel::get().rcua_spine_miss_ns);
    return (*b)[off];
  }

  rt::Cluster& cluster_;
  std::size_t block_size_;
  reclaim::HazardDomain* domain_;
  rt::GlobalLock write_lock_;
  std::atomic<Snapshot<T>*> snapshot_;
  std::uint32_t next_locale_ = 0;
};

}  // namespace rcua::baseline
