#include "runtime/thread_registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "testing/sched_point.hpp"

namespace rcua::rt {

namespace {

/// Liveness table: registry ids that still exist. A thread exiting after a
/// registry died must not touch that registry's records; the table (under
/// its mutex) makes the check race-free against registry destruction.
std::mutex& liveness_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<std::uint64_t>& live_registries() {
  static std::unordered_set<std::uint64_t> s;
  return s;
}

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// Per-thread cache of (registry id, record) pairs. On thread exit, parks
/// the thread's record in every still-live registry so it stops gating
/// safe-epoch minima.
struct RegistryCacheTls {
  struct Entry {
    std::uint64_t registry_id;
    ThreadRecord* record;
  };
  std::vector<Entry> entries;

  ThreadRecord* find(std::uint64_t id) const noexcept {
    for (const Entry& e : entries) {
      if (e.registry_id == id) return e.record;
    }
    return nullptr;
  }

  ~RegistryCacheTls() {
    std::lock_guard<std::mutex> guard(liveness_mutex());
    for (const Entry& e : entries) {
      if (live_registries().contains(e.registry_id)) {
        e.record->parked.store(true, std::memory_order_release);
      }
    }
  }
};

namespace {
thread_local RegistryCacheTls tl_cache;
}  // namespace

ThreadRegistry::ThreadRegistry() : id_(next_registry_id()) {
  for (auto& d : domains_) d.store(nullptr, std::memory_order_relaxed);
  std::lock_guard<std::mutex> guard(liveness_mutex());
  live_registries().insert(id_);
}

ThreadRegistry::~ThreadRegistry() {
  {
    std::lock_guard<std::mutex> guard(liveness_mutex());
    live_registries().erase(id_);
  }
  ThreadRecord* r = head_.exchange(nullptr, std::memory_order_acq_rel);
  while (r != nullptr) {
    ThreadRecord* next = r->next;
    for (auto& slot : r->slots) {
      reclaim::DeferList::reclaim_chain(slot.defer_list.pop_all());
    }
    delete r;
    r = next;
  }
}

ThreadRegistry& ThreadRegistry::global() {
  static ThreadRegistry* registry = new ThreadRegistry;  // immortal
  return *registry;
}

ThreadRecord& ThreadRegistry::local_record_slow() {
  ThreadRecord* r = tl_cache.find(id_);
  if (r == nullptr) {
    r = new ThreadRecord;
    ThreadRecord* old_head = head_.load(std::memory_order_relaxed);
    do {
      r->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, r,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    count_.fetch_add(1, std::memory_order_relaxed);
    tl_cache.entries.push_back({id_, r});
  }
  detail::tl_last_record = {id_, r};
  return *r;
}

std::uint64_t ThreadRegistry::live_record_count() const noexcept {
  std::uint64_t n = 0;
  for (ThreadRecord* r = head(); r != nullptr; r = r->next) {
    if (!r->parked.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

std::size_t ThreadRegistry::register_domain(EpochDomain& domain) {
  for (std::size_t i = 0; i < ThreadRecord::kMaxDomains; ++i) {
    EpochDomain* expected = nullptr;
    if (domains_[i].compare_exchange_strong(expected, &domain,
                                            std::memory_order_acq_rel)) {
      return i;
    }
  }
  std::fprintf(stderr,
               "rcua: ThreadRegistry domain slots exhausted (max %zu)\n",
               ThreadRecord::kMaxDomains);
  std::abort();
}

void ThreadRegistry::unregister_domain(std::size_t slot) {
  flush_slot_unsafe(slot);
  // Deactivate the slot in every record so a future domain reusing the
  // index starts clean.
  for (ThreadRecord* r = head(); r != nullptr; r = r->next) {
    r->slots[slot].active.store(false, std::memory_order_relaxed);
    r->slots[slot].observed_epoch.store(0, std::memory_order_relaxed);
  }
  domains_[slot].store(nullptr, std::memory_order_release);
}

std::uint64_t ThreadRegistry::min_observed_epoch(
    std::size_t slot, std::uint64_t ceiling) const noexcept {
  std::uint64_t visited = 0;
  return min_observed_epoch_counted(slot, ceiling, visited);
}

std::uint64_t ThreadRegistry::min_observed_epoch_counted(
    std::size_t slot, std::uint64_t ceiling,
    std::uint64_t& live_visited) const noexcept {
  std::uint64_t min = ceiling;
  bool found = false;
  live_visited = 0;
  for (ThreadRecord* r = head(); r != nullptr; r = r->next) {
    const DomainSlot& s = r->slots[slot];
    if (r->parked.load(std::memory_order_acquire)) continue;
    ++live_visited;
    if (!s.active.load(std::memory_order_acquire)) continue;
    const std::uint64_t seen = s.observed_epoch.load(std::memory_order_acquire);
    if (!found || seen < min) {
      min = seen;
      found = true;
    }
  }
  return min;
}

void ThreadRegistry::park_current_thread() {
  ThreadRecord& rec = local_record();
  RCUA_SCHED_POINT("registry.park.begin");
  for (std::size_t i = 0; i < ThreadRecord::kMaxDomains; ++i) {
    DomainSlot& slot = rec.slots[i];
    if (!slot.active.load(std::memory_order_relaxed)) continue;
    EpochDomain* dom = domains_[i].load(std::memory_order_acquire);
    if (dom == nullptr) continue;
    // Observe the newest state, then reclaim whatever our own list allows.
    const std::uint64_t e = dom->current_epoch();
    slot.observed_epoch.store(e, std::memory_order_release);
    const std::uint64_t min = min_observed_epoch(i, e);
    reclaim::DeferNode* chain;
    {
      std::lock_guard<plat::Spinlock> list_guard(slot.list_lock);
      chain = slot.defer_list.pop_less_equal(min);
    }
    reclaim::DeferList::reclaim_chain(chain);
  }
  RCUA_SCHED_POINT("registry.park.final");
  rec.parked.store(true, std::memory_order_release);
}

void ThreadRegistry::unpark_current_thread() {
  ThreadRecord& rec = local_record();
  // Observe current epochs *before* becoming visible so the thread never
  // appears to lag behind reclamations performed while it was parked.
  for (std::size_t i = 0; i < ThreadRecord::kMaxDomains; ++i) {
    DomainSlot& slot = rec.slots[i];
    if (!slot.active.load(std::memory_order_relaxed)) continue;
    EpochDomain* dom = domains_[i].load(std::memory_order_acquire);
    if (dom == nullptr) continue;
    slot.observed_epoch.store(dom->current_epoch(), std::memory_order_release);
  }
  RCUA_SCHED_POINT("registry.unpark");
  rec.parked.store(false, std::memory_order_release);
}

void ThreadRegistry::flush_slot_unsafe(std::size_t slot) {
  for (ThreadRecord* r = head(); r != nullptr; r = r->next) {
    reclaim::DeferNode* chain;
    {
      std::lock_guard<plat::Spinlock> list_guard(r->slots[slot].list_lock);
      chain = r->slots[slot].defer_list.pop_all();
    }
    reclaim::DeferList::reclaim_chain(chain);
  }
}

}  // namespace rcua::rt
