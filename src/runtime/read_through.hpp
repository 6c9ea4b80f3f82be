#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "platform/atomics.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/cluster.hpp"
#include "runtime/comm.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::rt {

/// The read side of the block cache protocol (DESIGN.md §11): how a value
/// read of a REMOTE block goes through the calling locale's BlockCache,
/// written once for RCUArray::read() and the bulk engine (core/bulk.hpp).
/// BlockCache holds the other half: the tagged entries, the LRU and the
/// byte ledger. Both readers take the same two steps:
///
///  * lookup(): charge one lookup, then compare the entry's tags with the
///    pinned snapshot version and the block's current write generation;
///  * complete(): wait for a fill(), then insert the copy under the
///    pinned version and the generation sampled before the copy.
///
/// One instance serves one task inside one pinned read section, and
/// every step runs inside that section: a fill copies out of a block that
/// only the pin keeps alive (the drain-before-release rule extended to
/// fills). `BlockT` is the array's block type (rcua::Block<T>): whole-
/// block storage with data(), capacity(), owner() and generation().
template <typename BlockT>
class ReadThrough {
 public:
  using T = std::remove_pointer_t<decltype(std::declval<BlockT&>().data())>;

  /// One in-flight whole-block fill. `done` resolves, when the copy has
  /// run on the owner's timeline, to the write generation sampled
  /// immediately BEFORE the copy: a copy holding a pre-write value always
  /// carries a pre-write generation (the stale-tag direction the
  /// coherence argument needs).
  struct Fill {
    std::size_t bidx = 0;
    std::size_t bytes = 0;
    std::shared_ptr<std::byte[]> buf;
    future<std::uint64_t> done;
  };

  /// `pinned_version` is the version of the snapshot the caller's section
  /// pinned; `window` is the fills' in-flight window (0 = the
  /// RCUA_COMM_WINDOW default).
  ReadThrough(Cluster& cluster, BlockCache& cache,
              std::uint64_t pinned_version, std::size_t window = 0)
      : cluster_(cluster),
        cache_(cache),
        version_(pinned_version),
        window_(window) {}

  /// The lookup step for `len` elements of remote block `b` (index
  /// `bidx`). A hit is charged the node-local copy of those elements and
  /// returns the cached block, which a concurrent eviction cannot free
  /// while the caller holds it. A miss returns nullptr.
  [[nodiscard]] std::shared_ptr<const T[]> lookup(std::size_t bidx,
                                                  const BlockT& b,
                                                  std::size_t len) {
    const auto& m = sim::CostModel::get();
    sim::charge(m.cache_lookup_ns);
    auto bytes = cache_.lookup(bidx, version_, b.generation());
    if (bytes == nullptr) return nullptr;
    sim::charge(m.cache_copy_ns_per_elem * static_cast<double>(len));
    return as_elements(std::move(bytes));
  }

  /// Issues ONE whole-block fetch of remote block `b` and counts one
  /// fill: the single remote execute that replaces O(elements) remote
  /// traffic for every later hit. Fills pipeline under the window; the
  /// copy uses per-element relaxed loads, so §III-C element races stay
  /// defined.
  [[nodiscard]] Fill fill(std::size_t bidx, BlockT& b) {
    if (!async_) {
      async_.emplace(cluster_.comm(), cluster_.here(),
                     AsyncComm::Options{.window = window_});
    }
    const std::size_t n = b.capacity();
    Fill f{bidx, n * sizeof(T),
           std::shared_ptr<std::byte[]>(new std::byte[n * sizeof(T)]), {}};
    T* dst = reinterpret_cast<T*>(f.buf.get());
    BlockT* src = &b;
    cache_.note_fill();
    f.done = async_->execute(
        b.owner(), /*weight=*/n, [src, dst, n]() -> std::uint64_t {
          RCUA_SCHED_POINT("rcua.cache.fill_copy");
          const std::uint64_t gen = src->generation();  // BEFORE the copy
          plat::relaxed_copy(dst, src->data(), n);
          sim::charge(sim::CostModel::get().cache_copy_ns_per_elem *
                      static_cast<double>(n));
          return gen;
        });
    return f;
  }

  /// The fill-completion step: waits for `f`, inserts the copy under the
  /// pinned version, and charges the node-local copy of the `len`
  /// elements the caller serves from it. Only a completed copy reaches
  /// insert(): a fill that unwinds never inserts, so no partial-block
  /// entry can exist.
  [[nodiscard]] std::shared_ptr<const T[]> complete(Fill f,
                                                    std::size_t len) {
    const std::uint64_t gen = f.done.get();
    cache_.insert(f.bidx, version_, gen, f.buf, f.bytes);
    sim::charge(sim::CostModel::get().cache_copy_ns_per_elem *
                static_cast<double>(len));
    return as_elements(std::move(f.buf));
  }

 private:
  static std::shared_ptr<const T[]> as_elements(
      std::shared_ptr<const std::byte[]> bytes) {
    const T* elems = reinterpret_cast<const T*>(bytes.get());
    return {std::move(bytes), elems};
  }

  Cluster& cluster_;
  BlockCache& cache_;
  std::uint64_t version_;
  std::size_t window_;
  /// The fills' async session, opened at the first miss.
  std::optional<AsyncComm> async_;
};

}  // namespace rcua::rt
