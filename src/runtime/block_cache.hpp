#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace rcua::rt {

class CommLayer;

/// One array's capacity-bounded cache of REMOTE block contents on one
/// locale (the caching lever of the ROADMAP's four scaling levers;
/// locale-local caching of remote global-view state per Dewan & Jenkins,
/// arXiv:2112.00068). Each RCUArray per-locale copy owns one, so entries
/// are keyed by block index alone. Entries are whole-block byte copies
/// tagged with two coherence stamps sampled at fill time under the
/// filler's pinned snapshot:
///
///  * the snapshot VERSION pinned when the fill happened — any resize
///    publishes a new version, so an entry tagged older than the pinned
///    version is treated as a miss and lazily evicted (a resize_remove +
///    resize_add may have replaced the block behind the index);
///  * the block's write GENERATION — writers bump it (release) after
///    their store lands, so an entry holding a pre-write value always
///    carries a pre-write generation and the compare invalidates it.
///
/// Write-through + self-invalidate: no invalidation broadcast ever
/// happens, so the deterministic comm counters stay an exact function of
/// the workload (DESIGN.md §11 has the full coherence argument).
///
/// Thread safety: one instance is shared by every task on its locale that
/// accesses its array; all operations take an internal lock. lookup()
/// hands back SHARED ownership of the entry bytes, so a concurrent
/// eviction can never free a copy out from under a reader serving from
/// it. Capacity 0 disables the cache (enabled() == false); callers must
/// not consult a disabled cache, which keeps the cache-off access path
/// bit-identical to the uncached one.
///
/// The cache never touches Block/Snapshot types: it stores bytes under
/// the tags its caller passes in. The read side of the protocol (the tag
/// lookup, the fill copy with per-element atomicity, and their
/// virtual-time charges) is rt::ReadThrough (runtime/read_through.hpp).
class BlockCache {
 public:
  /// Counters, all guarded by the cache lock. The byte ledger satisfies
  ///   inserted_bytes == evicted_bytes + bytes_used()
  /// at any quiescent point: every entry drop — capacity eviction, lazy
  /// staleness eviction, or resize invalidation — is accounted as an
  /// eviction.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserted_bytes = 0;
    std::uint64_t evicted_bytes = 0;
  };

  /// `capacity_bytes == 0` disables the cache. Counters mirror into
  /// `comm`'s cache counters (total_cache_hits/misses/fills/evictions).
  BlockCache(CommLayer& comm, std::uint32_t locale,
             std::size_t capacity_bytes);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// RCUA_CACHE_CAPACITY_BYTES (default 0 = off).
  [[nodiscard]] static std::size_t capacity_from_env() noexcept;

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_;
  }

  /// Returns the entry's bytes when `block_index` is present AND its
  /// tags match the caller's pinned snapshot version and the block's
  /// current write generation; nullptr otherwise. A tag mismatch lazily
  /// evicts the stale entry. Counts one hit or one miss.
  [[nodiscard]] std::shared_ptr<const std::byte[]> lookup(
      std::uint64_t block_index, std::uint64_t pinned_version,
      std::uint64_t generation);

  /// Inserts a freshly filled whole-block copy under the filler's pinned
  /// version and the generation sampled BEFORE the copy. Evicts LRU
  /// entries until the copy fits; a copy larger than the whole cache is
  /// dropped without evicting anything. Entries only ever appear here,
  /// complete — a fill that dies mid-flight (exception unwind, cancelled
  /// async op) simply never inserts, so no partial-block entry can exist.
  void insert(std::uint64_t block_index, std::uint64_t version,
              std::uint64_t generation, std::shared_ptr<const std::byte[]> data,
              std::size_t bytes);

  /// Counts one block fill (the remote fetch itself is issued and charged
  /// by the caller through AsyncComm).
  void note_fill();

  /// Drops every entry with block_index >= first_block. Called by
  /// resize_remove and rehome BEFORE the dropped blocks are freed: the
  /// eviction interlock that extends the drain-before-release rule to
  /// cached copies (DESIGN.md §11). Returns entries dropped.
  std::size_t invalidate_tail(std::uint64_t first_block);

  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t version;
    std::uint64_t generation;
    std::size_t bytes;
    std::shared_ptr<const std::byte[]> data;
    /// Position in lru_ (front = MRU).
    std::list<std::uint64_t>::iterator lru_it;
  };
  using Map = std::unordered_map<std::uint64_t, Entry>;

  /// Drops `it`'s entry, accounting it as one eviction. Lock held.
  void evict_locked(Map::iterator it);

  CommLayer& comm_;
  std::uint32_t locale_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  Map map_;  ///< keyed by block index
  std::list<std::uint64_t> lru_;
  std::size_t used_ = 0;
  Stats stats_;
};

}  // namespace rcua::rt
