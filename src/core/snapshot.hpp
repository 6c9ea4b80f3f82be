#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/block.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua {

/// An immutable version of the RCUArray's metadata: the block pointer
/// table (Listing 1's RCUArraySnapshot). "Immutable" applies to the spine
/// only — the *blocks* the spine points at are mutable shared storage,
/// recycled from snapshot to snapshot.
///
/// The successor resize_add publishes (Figure 1) is a longer spine
/// sharing all existing block pointers: s' = (b1..bN, bN+1..bM), making s
/// a subsequence of s' — which is exactly why updates through references
/// obtained from s remain visible in s' (Lemma 6), and why reclaiming a
/// retired spine never touches element storage.
template <typename T>
class Snapshot {
 public:
  Snapshot() { live_.fetch_add(1, std::memory_order_relaxed); }

  explicit Snapshot(std::vector<Block<T>*> blocks) : blocks_(std::move(blocks)) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Monotonic per-array version stamp: 0 for the construction-time empty
  /// spine, +1 on every successor (every published structural op). It is
  /// the coherence tag of the per-locale block cache (DESIGN.md §11): a
  /// cached block copy is tagged with the version pinned at fill time, and
  /// any entry tagged older than the pinned version is treated as a miss.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  ~Snapshot() {
    // Spine only; blocks are owned by the array.
    live_.fetch_sub(1, std::memory_order_relaxed);
  }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The spine that replaces `old` in a structural op: `old`'s first
  /// `keep` blocks, recycled, then `tail`; version + 1, charged one pointer
  /// copy per block of the new spine. resize_add keeps every block and
  /// appends, so `old` is a prefix (Lemma 6); resize_remove keeps a
  /// prefix; rehome keeps none and passes the whole table with the moved
  /// blocks replaced, so its publisher must copy their contents first and
  /// drain `old`'s readers before freeing the replaced blocks.
  static Snapshot* successor(const Snapshot& old, std::size_t keep,
                             std::span<Block<T>* const> tail) {
    assert(keep <= old.blocks_.size());
    auto* s = new Snapshot;
    s->version_ = old.version_ + 1;
    s->blocks_.reserve(keep + tail.size());
    s->blocks_.assign(old.blocks_.begin(),
                      old.blocks_.begin() + static_cast<std::ptrdiff_t>(keep));
    s->blocks_.insert(s->blocks_.end(), tail.begin(), tail.end());
    sim::charge(sim::CostModel::get().spine_copy_ns_per_block *
                static_cast<double>(s->blocks_.size()));
    RCUA_SCHED_POINT("snapshot.cloned");
    return s;
  }

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return blocks_.size();
  }

  [[nodiscard]] Block<T>* block(std::size_t i) const noexcept {
    assert(i < blocks_.size());
    return blocks_[i];
  }

  [[nodiscard]] const std::vector<Block<T>*>& blocks() const noexcept {
    return blocks_;
  }

  /// Total element capacity across the spine (all blocks share one size).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return blocks_.empty() ? 0 : blocks_.size() * blocks_.front()->capacity();
  }

  /// True iff `prefix` is a spine-prefix of *this (the Lemma 6 invariant
  /// tests assert after a clone).
  [[nodiscard]] bool has_prefix(const Snapshot& prefix) const noexcept {
    if (prefix.blocks_.size() > blocks_.size()) return false;
    for (std::size_t i = 0; i < prefix.blocks_.size(); ++i) {
      if (prefix.blocks_[i] != blocks_[i]) return false;
    }
    return true;
  }

  /// Number of live Snapshot<T> spines — the "at most two active
  /// snapshots" (Lemma 1) and no-leak assertions in tests.
  static std::uint64_t live_count() noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<Block<T>*> blocks_;
  std::uint64_t version_ = 0;
  static inline std::atomic<std::uint64_t> live_{0};
};

}  // namespace rcua
