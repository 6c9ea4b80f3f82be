#include "runtime/block_cache.hpp"

#include "runtime/comm.hpp"
#include "testing/sched_point.hpp"
#include "util/env.hpp"

namespace rcua::rt {

BlockCache::BlockCache(CommLayer& comm, std::uint32_t locale,
                       std::size_t capacity_bytes)
    : comm_(comm), locale_(locale), capacity_(capacity_bytes) {}

std::size_t BlockCache::capacity_from_env() noexcept {
  return static_cast<std::size_t>(
      util::env_u64("RCUA_CACHE_CAPACITY_BYTES", 0));
}

std::shared_ptr<const std::byte[]> BlockCache::lookup(
    std::uint64_t block_index, std::uint64_t pinned_version,
    std::uint64_t generation) {
  // Sched points sit OUTSIDE the lock: the deterministic scheduler may
  // park a task at a point, and parking while holding mu_ would wedge
  // every other task on this locale's cache.
  RCUA_SCHED_POINT("cache.lookup");
  std::lock_guard<std::mutex> guard(mu_);
  auto it = map_.find(block_index);
  if (it == map_.end()) {
    ++stats_.misses;
    comm_.note_cache_miss(locale_);
    return nullptr;
  }
  // MUTATION (sched harness only): cache_use_after_invalidate serves the
  // entry without the version/generation compare — the
  // invalidated-but-present entry a resize or a remote write left behind
  // is then returned as if fresh (tests/test_sched_cache.cpp proves the
  // explorer catches the stale read this produces).
  if (!RCUA_SCHED_MUT(cache_use_after_invalidate) &&
      (it->second.version != pinned_version ||
       it->second.generation != generation)) {
    // Stale under the caller's pin: treat as a miss and lazily evict.
    evict_locked(it);
    ++stats_.misses;
    comm_.note_cache_miss(locale_);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  comm_.note_cache_hit(locale_);
  return it->second.data;
}

void BlockCache::insert(std::uint64_t block_index, std::uint64_t version,
                        std::uint64_t generation,
                        std::shared_ptr<const std::byte[]> data,
                        std::size_t bytes) {
  RCUA_SCHED_POINT("cache.insert");
  std::lock_guard<std::mutex> guard(mu_);
  if (bytes > capacity_) return;  // can never fit; do not thrash the LRU
  if (auto it = map_.find(block_index); it != map_.end()) {
    // A concurrent task on this locale filled the same block first (or a
    // stale entry lingers). Replace it: this fill's tags are current.
    evict_locked(it);
  }
  while (used_ + bytes > capacity_ && !lru_.empty()) {
    evict_locked(map_.find(lru_.back()));
  }
  lru_.push_front(block_index);
  map_.emplace(block_index, Entry{version, generation, bytes, std::move(data),
                                  lru_.begin()});
  used_ += bytes;
  stats_.inserted_bytes += bytes;
}

void BlockCache::note_fill() {
  std::lock_guard<std::mutex> guard(mu_);
  ++stats_.fills;
  comm_.note_cache_fill(locale_);
}

std::size_t BlockCache::invalidate_tail(std::uint64_t first_block) {
  RCUA_SCHED_POINT("cache.invalidate");
  std::lock_guard<std::mutex> guard(mu_);
  std::size_t dropped = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first >= first_block) {
      auto victim = it++;
      evict_locked(victim);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t BlockCache::bytes_used() const {
  std::lock_guard<std::mutex> guard(mu_);
  return used_;
}

std::size_t BlockCache::entries() const {
  std::lock_guard<std::mutex> guard(mu_);
  return map_.size();
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> guard(mu_);
  return stats_;
}

void BlockCache::evict_locked(Map::iterator it) {
  used_ -= it->second.bytes;
  stats_.evicted_bytes += it->second.bytes;
  ++stats_.evictions;
  comm_.note_cache_evictions(locale_, 1);
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

}  // namespace rcua::rt
