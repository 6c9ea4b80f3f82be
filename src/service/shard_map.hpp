#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::svc {

/// An immutable version of a ShardedCollection's shard-mapping table:
/// shard index -> home locale. The mapping is published through exactly
/// the snapshot-swap machinery the paper proves for the block table
/// (DESIGN.md §14): each locale holds a privatized
/// `std::atomic<ShardMap*>`, a placement read (home_of, map_version,
/// PressureMonitor) is an RCU read of that pointer, and a remap is a
/// resize-style publication — clone, swap, reclaim the old table through
/// the configured Reclaimer policy once its readers drain. Element ops
/// do not read it: they route by block-cyclic arithmetic.
///
/// The Lemma 6 recycling argument carries over in a *stronger* form:
/// the entries here are locale ids (plain values), not pointers into
/// shared storage, so a reader holding a retired map cannot even
/// observe a dangling entry. Reclamation therefore only has to keep the
/// retired table's *memory* alive until its readers drain, which is
/// precisely what the snapshot machinery already does for spines.
class ShardMap {
 public:
  explicit ShardMap(std::vector<std::uint32_t> home) : home_(std::move(home)) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  ~ShardMap() { live_.fetch_sub(1, std::memory_order_relaxed); }

  ShardMap(const ShardMap&) = delete;
  ShardMap& operator=(const ShardMap&) = delete;

  /// Clones `old` with shard `shard` re-homed to `dst` — the remap
  /// publication (the clone_append analog for the mapping table).
  /// Charges the same spine-copy model as a snapshot clone.
  static ShardMap* clone_set(const ShardMap& old, std::size_t shard,
                             std::uint32_t dst) {
    assert(shard < old.home_.size());
    auto* m = new ShardMap(old.home_);
    m->version_ = old.version_ + 1;
    m->home_[shard] = dst;
    sim::charge(sim::CostModel::get().spine_copy_ns_per_block *
                static_cast<double>(m->home_.size()));
    RCUA_SCHED_POINT("shard_map.cloned");
    return m;
  }

  /// Home locale of `shard` in this version of the mapping.
  [[nodiscard]] std::uint32_t home(std::size_t shard) const noexcept {
    assert(shard < home_.size());
    return home_[shard];
  }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return home_.size();
  }

  /// Monotonic version stamp: 0 for the construction-time table, +1 per
  /// published remap (same contract as Snapshot::version).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Live ShardMap tables — the no-leak assertion in tests (the
  /// Snapshot::live_count analog).
  static std::uint64_t live_count() noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::uint32_t> home_;
  std::uint64_t version_ = 0;
  static inline std::atomic<std::uint64_t> live_{0};
};

}  // namespace rcua::svc
