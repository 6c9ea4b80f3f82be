#include "reclaim/qsbr.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "obs/health.hpp"
#include "obs/trace.hpp"
#include "platform/backoff.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::reclaim {

Qsbr& Qsbr::global() {
  static Qsbr* domain = new Qsbr;  // immortal
  return *domain;
}

void Qsbr::join(Slot& slot, std::uint64_t gen) {
  // Become visible to min-epoch scans with a current observation, so we
  // never drag the minimum below the state that existed before we
  // arrived. The release store carries the observation and the index's
  // generation to a scan that reads the state.
  slot.observed_epoch.store(current_epoch(), std::memory_order_relaxed);
  slot.state.store(gen, std::memory_order_release);
  // The join's StoreLoad edge: a checkpoint whose scan (after its own
  // seq_cst fence) misses these stores frees only what was unpublished
  // before this fence, so the caller's next protected load cannot return
  // it (DESIGN.md §5).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

std::uint64_t Qsbr::min_observed_epoch(std::uint64_t ceiling,
                                       std::uint64_t& live) const {
  // Pairs with the join's fence, and lets the bank's index and chunk
  // loads see every slot (ReaderBank::for_each).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::uint64_t min = ceiling;
  live = 0;
  bank_.for_each([&](std::size_t i, const Slot& s) {
    // The state first: reading a join's generation makes the index's
    // take visible to the generation load and the join's observation to
    // the epoch load.
    const std::uint64_t state = s.state.load(std::memory_order_acquire);
    if (state != plat::reader_generation(i)) return;  // parked, left, gone
    ++live;
    min = std::min(min, s.observed_epoch.load(std::memory_order_acquire));
  });
  return min;
}

DeferNode* Qsbr::pop_up_to(Slot& slot, std::uint64_t min) {
  std::lock_guard<plat::Spinlock> list_guard(slot.list_lock);
  DeferNode* chain = slot.defer_list.pop_less_equal(min);
  // Counted under the lock, so a flush_unsafe() that finds the list
  // without this chain also finds the chain in flight.
  if (chain != nullptr) slot.in_flight.fetch_add(1, std::memory_order_relaxed);
  return chain;
}

std::size_t Qsbr::reclaim_popped(Slot& slot, DeferNode* chain) {
  if (chain == nullptr) return 0;
  std::size_t freed = 0;
  for (DeferNode* n = chain; n != nullptr; n = n->next) ++freed;
  DeferList::reclaim_chain(chain);
  slot.in_flight.fetch_sub(1, std::memory_order_release);
  return freed;
}

void Qsbr::defer(DeferNode* node) {
  Slot& slot = participate();
  // Update and observe the new global state (lines 1-2). The fetch_add
  // both invalidates the old state and produces the safe epoch: once all
  // threads have observed >= e, nobody can still hold a reference
  // acquired under the state e replaced.
  const std::uint64_t e =
      state_epoch_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  assert(e != 0 && "StateEpoch overflow is undefined behaviour (paper fn.5)");
  RCUA_SCHED_POINT("qsbr.defer.epoch_bumped");
  obs::trace_instant("rcu.epoch_bump", "rcu", e);
  slot.observed_epoch.store(e, std::memory_order_release);
  RCUA_SCHED_POINT("qsbr.defer.observed");
  // Couple the memory with its safe epoch, LIFO (line 3; Lemma 4 keeps
  // the list sorted descending because e is monotone per slot).
  node->safe_epoch = e;
  {
    std::lock_guard<plat::Spinlock> list_guard(slot.list_lock);
    slot.defer_list.push(node);
  }
  defers_.value.fetch_add(1, std::memory_order_relaxed);
  const auto& m = sim::CostModel::get();
  sim::charge(m.qsbr_defer_ns + m.atomic_rmw_ns);
}

std::size_t Qsbr::checkpoint() {
  Slot& slot = participate();
  // Observe the current state (lines 4-5).
  const std::uint64_t e = current_epoch();
  if (test_hook != nullptr) test_hook(*this, kHookCheckpointEpochRead);
  RCUA_SCHED_POINT("qsbr.checkpoint.epoch_read");
  slot.observed_epoch.store(e, std::memory_order_release);
  if (test_hook != nullptr) test_hook(*this, kHookCheckpointObserved);
  RCUA_SCHED_POINT("qsbr.checkpoint.observed");
  // Find the smallest (safest) epoch over all participants (lines 6-8).
  std::uint64_t live = 0;
  std::uint64_t min = min_observed_epoch(e, live);
  if (RCUA_SCHED_MUT(qsbr_ignore_min)) min = e;
  RCUA_SCHED_POINT("qsbr.checkpoint.scanned");
  // How far the slowest participant trails the state this thread just
  // observed — the health signal for a laggard pinning reclamation.
  obs::health::epoch_lag().update_max(e - min);
  // Split the DeferList where safe epoch <= min and reclaim (lines 9-13).
  const std::size_t freed = reclaim_popped(slot, pop_up_to(slot, min));

  checkpoints_.value.fetch_add(1, std::memory_order_relaxed);
  reclaimed_.value.fetch_add(freed, std::memory_order_relaxed);
  const auto& m = sim::CostModel::get();
  sim::charge(m.atomic_load_ns +
              m.qsbr_checkpoint_per_thread_ns * static_cast<double>(live));
  return freed;
}

void Qsbr::park() {
  if (test_hook != nullptr) test_hook(*this, kHookPark);
  const std::uint64_t gen = plat::reader_generation();
  Slot& slot = bank_.mine();
  if (slot.state.load(std::memory_order_relaxed) != gen) return;
  RCUA_SCHED_POINT("qsbr.park.begin");
  // Observe the newest state, then reclaim whatever our own list allows.
  const std::uint64_t e = current_epoch();
  slot.observed_epoch.store(e, std::memory_order_release);
  std::uint64_t live = 0;
  DeferNode* chain = pop_up_to(slot, min_observed_epoch(e, live));
  if (test_hook != nullptr) test_hook(*this, kHookParkPopped);
  reclaim_popped(slot, chain);
  RCUA_SCHED_POINT("qsbr.park.final");
  slot.state.store(gen | kParked, std::memory_order_release);
}

void Qsbr::unpark() {
  if (test_hook != nullptr) test_hook(*this, kHookUnpark);
  const std::uint64_t gen = plat::reader_generation();
  Slot& slot = bank_.mine();
  if (slot.state.load(std::memory_order_relaxed) != (gen | kParked)) return;
  RCUA_SCHED_POINT("qsbr.unpark");
  // Observe the current epoch *before* becoming visible, so the thread
  // never appears to lag behind reclamations performed while it was
  // parked.
  join(slot, gen);
}

void Qsbr::flush_unsafe() {
  bank_.for_each([](std::size_t, Slot& s) {
    DeferNode* chain;
    {
      std::lock_guard<plat::Spinlock> list_guard(s.list_lock);
      chain = s.defer_list.pop_all();
    }
    DeferList::reclaim_chain(chain);
    // Then wait out any chain a park or checkpoint popped and still runs.
    // Testing first keeps a flush on a scheduled task from yielding to
    // the harness when nothing is in flight.
    if (s.in_flight.load(std::memory_order_acquire) != 0) {
      plat::wait_until("qsbr.flush.in_flight", [&s] {
        return s.in_flight.load(std::memory_order_acquire) == 0;
      });
    }
  });
}

}  // namespace rcua::reclaim
