// Unit tests for the runtime's TLSList (ThreadRegistry): registration,
// domain slots, min-epoch scans, parking, flushing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <new>
#include <thread>

#include "reclaim/qsbr.hpp"
#include "reclaim/retire_list.hpp"
#include "runtime/thread_registry.hpp"

namespace rt = rcua::rt;
namespace reclaim = rcua::reclaim;

namespace {

/// Minimal EpochDomain for driving the registry directly.
class FakeDomain : public rt::EpochDomain {
 public:
  std::atomic<std::uint64_t> epoch{0};
  [[nodiscard]] std::uint64_t current_epoch() const noexcept override {
    return epoch.load();
  }
};

int destroyed = 0;
struct Counted {
  ~Counted() { ++destroyed; }
};

}  // namespace

TEST(DeferList, PushPopOrdering) {
  reclaim::DeferList list;
  EXPECT_TRUE(list.empty());
  list.push(reclaim::make_defer_node<int>(new int(1), 10));
  list.push(reclaim::make_defer_node<int>(new int(2), 20));
  list.push(reclaim::make_defer_node<int>(new int(3), 30));
  EXPECT_EQ(list.size(), 3u);
  // Descending by safe epoch from the head (Lemma 4).
  EXPECT_EQ(list.head()->safe_epoch, 30u);

  // Split at <= 15: only the epoch-10 suffix comes off.
  reclaim::DeferNode* chain = list.pop_less_equal(15);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->safe_epoch, 10u);
  EXPECT_EQ(chain->next, nullptr);
  reclaim::DeferList::reclaim_chain(chain);
  EXPECT_EQ(list.size(), 2u);

  // Split at <= 30: everything.
  chain = list.pop_less_equal(30);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->safe_epoch, 30u);
  EXPECT_EQ(chain->next->safe_epoch, 20u);
  reclaim::DeferList::reclaim_chain(chain);
  EXPECT_TRUE(list.empty());
}

TEST(DeferList, PopLessEqualOnEmptyIsNull) {
  reclaim::DeferList list;
  EXPECT_EQ(list.pop_less_equal(100), nullptr);
}

TEST(DeferList, FreeAllRunsDeleters) {
  destroyed = 0;
  {
    reclaim::DeferList list;
    list.push(reclaim::make_defer_node(new Counted, 1));
    list.push(reclaim::make_defer_node(new Counted, 2));
    list.free_all();
    EXPECT_EQ(destroyed, 2);
  }
}

TEST(DeferList, DestructorReclaimsPending) {
  destroyed = 0;
  {
    reclaim::DeferList list;
    list.push(reclaim::make_defer_node(new Counted, 1));
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(DeferNode, FnNodeRunsCallback) {
  static int hits = 0;
  hits = 0;
  auto* n = reclaim::make_defer_node_fn(
      [](void*) { ++hits; }, nullptr, 5);
  EXPECT_EQ(n->safe_epoch, 5u);
  n->run_and_dispose();
  EXPECT_EQ(hits, 1);
}

TEST(ThreadRegistry, LocalRecordIsStablePerThread) {
  rt::ThreadRegistry reg;
  rt::ThreadRecord& a = reg.local_record();
  rt::ThreadRecord& b = reg.local_record();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.record_count(), 1u);
}

TEST(ThreadRegistry, DistinctThreadsGetDistinctRecords) {
  rt::ThreadRegistry reg;
  rt::ThreadRecord* main_rec = &reg.local_record();
  rt::ThreadRecord* other_rec = nullptr;
  std::thread([&] { other_rec = &reg.local_record(); }).join();
  EXPECT_NE(main_rec, other_rec);
  EXPECT_EQ(reg.record_count(), 2u);
}

// local_record()'s one-entry thread-local cache: a thread alternating
// between two registries misses it on every switch and must still land
// on its own record in each, never on the other registry's.
TEST(ThreadRegistry, RecordCacheAlternatesBetweenRegistries) {
  rt::ThreadRegistry a;
  rt::ThreadRegistry b;
  rt::ThreadRecord* ra = &a.local_record();
  rt::ThreadRecord* rb = &b.local_record();
  EXPECT_NE(ra, rb);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(&a.local_record(), ra);
    EXPECT_EQ(&b.local_record(), rb);
  }
  rt::ThreadRecord* other_a = nullptr;
  std::thread([&] {
    other_a = &a.local_record();
    EXPECT_NE(&b.local_record(), rb);
    EXPECT_EQ(&a.local_record(), other_a);
  }).join();
  EXPECT_NE(other_a, ra);
  EXPECT_EQ(&b.local_record(), rb);
  EXPECT_EQ(&a.local_record(), ra);
  EXPECT_EQ(a.record_count(), 2u);
  EXPECT_EQ(b.record_count(), 2u);
}

// The cache is keyed by the registry's never-reused id, not its address:
// a thread whose cached record belonged to a destroyed registry must get
// a fresh record in a new registry built at the same address, so it
// still gates QSBR reclamation there.
TEST(ThreadRegistry, RecordCacheIgnoresARegistryRebuiltAtTheSameAddress) {
  alignas(rt::ThreadRegistry) std::byte storage[sizeof(rt::ThreadRegistry)];
  rt::ThreadRegistry* reg = new (storage) rt::ThreadRegistry;
  std::atomic<int> step{0};
  std::atomic<reclaim::Qsbr*> domain{nullptr};
  std::atomic<rt::ThreadRecord*> lagger_rec{nullptr};
  auto wait_for = [&](int s) {
    while (step.load() != s) std::this_thread::yield();
  };
  std::thread lagger([&] {
    (void)reg->local_record();  // caches a record of the first registry
    step.store(1);
    wait_for(2);
    domain.load()->ensure_participant();  // observes the current state
    lagger_rec.store(&reg->local_record());
    step.store(3);
    wait_for(4);
    domain.load()->checkpoint();  // finally catches up
    step.store(5);
  });
  wait_for(1);
  reg->~ThreadRegistry();
  rt::ThreadRegistry* fresh = new (storage) rt::ThreadRegistry;
  ASSERT_EQ(static_cast<void*>(fresh), static_cast<void*>(reg));
  {
    reclaim::Qsbr qsbr(*fresh);
    domain.store(&qsbr);
    step.store(2);
    wait_for(3);
    EXPECT_EQ(fresh->record_count(), 1u);
    EXPECT_EQ(fresh->head(), lagger_rec.load());

    destroyed = 0;
    qsbr.defer_delete(new Counted);
    rt::ThreadRecord* mine = &fresh->local_record();
    EXPECT_NE(mine, lagger_rec.load());
    EXPECT_EQ(fresh->record_count(), 2u);
    qsbr.checkpoint();
    EXPECT_EQ(destroyed, 0) << "reclaimed while a participant lagged";
    step.store(4);
    wait_for(5);
    qsbr.checkpoint();
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(&fresh->local_record(), mine);
  }
  lagger.join();
  fresh->~ThreadRegistry();
}

TEST(ThreadRegistry, ExitingThreadIsParked) {
  rt::ThreadRegistry reg;
  rt::ThreadRecord* rec = nullptr;
  std::thread([&] { rec = &reg.local_record(); }).join();
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->parked.load());
  EXPECT_EQ(reg.live_record_count(), 0u);
}

TEST(ThreadRegistry, DomainSlotAllocationAndRelease) {
  rt::ThreadRegistry reg;
  FakeDomain d1, d2;
  const std::size_t s1 = reg.register_domain(d1);
  const std::size_t s2 = reg.register_domain(d2);
  EXPECT_NE(s1, s2);
  reg.unregister_domain(s1);
  FakeDomain d3;
  EXPECT_EQ(reg.register_domain(d3), s1);  // slot recycled
  reg.unregister_domain(s1);
  reg.unregister_domain(s2);
}

TEST(ThreadRegistry, MinObservedEpochSkipsInactiveAndParked) {
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);

  // No active participants: ceiling.
  EXPECT_EQ(reg.min_observed_epoch(slot, 42), 42u);

  rt::ThreadRecord& me = reg.local_record();
  me.slots[slot].observed_epoch.store(7);
  me.slots[slot].active.store(true);
  EXPECT_EQ(reg.min_observed_epoch(slot, 42), 7u);

  // A second, lagging participant drags the minimum down...
  rt::ThreadRecord* other = nullptr;
  std::thread([&] {
    other = &reg.local_record();
    other->slots[slot].observed_epoch.store(3);
    other->slots[slot].active.store(true);
    other->parked.store(false);
  }).join();
  // (thread exit parked it; force it live again to model a lagging peer)
  other->parked.store(false);
  EXPECT_EQ(reg.min_observed_epoch(slot, 42), 3u);

  // ...until it parks.
  other->parked.store(true);
  EXPECT_EQ(reg.min_observed_epoch(slot, 42), 7u);
  reg.unregister_domain(slot);
}

TEST(ThreadRegistry, ParkFlushesOwnListAndExcludesThread) {
  destroyed = 0;
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);

  rt::ThreadRecord& me = reg.local_record();
  me.slots[slot].active.store(true);
  dom.epoch.store(10);
  me.slots[slot].observed_epoch.store(10);
  me.slots[slot].defer_list.push(reclaim::make_defer_node(new Counted, 9));

  reg.park_current_thread();
  EXPECT_EQ(destroyed, 1);  // own list flushed at park
  EXPECT_TRUE(me.parked.load());
  EXPECT_EQ(reg.live_record_count(), 0u);

  reg.unpark_current_thread();
  EXPECT_FALSE(me.parked.load());
  EXPECT_EQ(me.slots[slot].observed_epoch.load(), 10u);
  reg.unregister_domain(slot);
}

TEST(ThreadRegistry, ParkCannotFlushWhatOthersStillGate) {
  destroyed = 0;
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);

  // A lagging live peer at epoch 1.
  rt::ThreadRecord* other = nullptr;
  std::thread([&] {
    other = &reg.local_record();
    other->slots[slot].observed_epoch.store(1);
    other->slots[slot].active.store(true);
  }).join();
  other->parked.store(false);

  rt::ThreadRecord& me = reg.local_record();
  me.slots[slot].active.store(true);
  dom.epoch.store(10);
  me.slots[slot].defer_list.push(reclaim::make_defer_node(new Counted, 9));

  reg.park_current_thread();
  EXPECT_EQ(destroyed, 0);  // epoch 9 > min(1): must stay deferred
  EXPECT_EQ(me.slots[slot].defer_list.size(), 1u);

  reg.unpark_current_thread();
  reg.unregister_domain(slot);  // flushes the remainder
  EXPECT_EQ(destroyed, 1);
}

TEST(ThreadRegistry, UnregisterDeactivatesSlotEverywhere) {
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);
  rt::ThreadRecord& me = reg.local_record();
  me.slots[slot].active.store(true);
  me.slots[slot].observed_epoch.store(99);
  reg.unregister_domain(slot);
  EXPECT_FALSE(me.slots[slot].active.load());
  EXPECT_EQ(me.slots[slot].observed_epoch.load(), 0u);
}

TEST(ThreadRegistry, FlushSlotUnsafeDrainsEverything) {
  destroyed = 0;
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);
  rt::ThreadRecord& me = reg.local_record();
  me.slots[slot].defer_list.push(reclaim::make_defer_node(new Counted, 5));
  me.slots[slot].defer_list.push(reclaim::make_defer_node(new Counted, 6));
  reg.flush_slot_unsafe(slot);
  EXPECT_EQ(destroyed, 2);
  reg.unregister_domain(slot);
}

TEST(ThreadRegistry, CountedScanReportsLiveRecords) {
  rt::ThreadRegistry reg;
  FakeDomain dom;
  const std::size_t slot = reg.register_domain(dom);
  (void)reg.local_record();
  std::thread([&] { (void)reg.local_record(); }).join();  // parked on exit
  std::uint64_t live = 0;
  (void)reg.min_observed_epoch_counted(slot, 0, live);
  EXPECT_EQ(live, 1u);  // only the main thread
  reg.unregister_domain(slot);
}
