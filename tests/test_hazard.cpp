// Tests for the hazard-pointer domain (related-work baseline).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/topology.hpp"
#include "reclaim/hazard.hpp"

namespace reclaim = rcua::reclaim;

namespace {
std::atomic<int> destroyed{0};
struct Counted {
  int payload = 0;
  ~Counted() { destroyed.fetch_add(1, std::memory_order_relaxed); }
};

struct Canary {
  static constexpr std::uint64_t kAlive = 0xA11CE5ED;
  std::atomic<std::uint64_t> state{kAlive};
  ~Canary() { state.store(0); }
};
}  // namespace

TEST(Hazard, GuardReadsCurrentPointer) {
  reclaim::HazardDomain dom;
  std::atomic<Counted*> src{new Counted{.payload = 5}};
  {
    reclaim::HazardDomain::Guard<Counted> guard(dom, src);
    EXPECT_EQ(guard->payload, 5);
    EXPECT_EQ(guard.get(), src.load());
  }
  delete src.load();
}

TEST(Hazard, RetireBelowThresholdDefers) {
  destroyed.store(0);
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(100);
  dom.retire(new Counted);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(dom.scan(), 1u);
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Hazard, ThresholdTriggersScan) {
  destroyed.store(0);
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(4);
  for (int i = 0; i < 4; ++i) dom.retire(new Counted);
  EXPECT_EQ(destroyed.load(), 4);  // 4th retire crossed the threshold
}

TEST(Hazard, ProtectedPointerSurvivesScan) {
  destroyed.store(0);
  reclaim::HazardDomain dom;
  std::atomic<Counted*> src{new Counted};
  Counted* original = src.load();
  {
    reclaim::HazardDomain::Guard<Counted> guard(dom, src);
    src.store(new Counted);  // swap out
    dom.retire(original);
    dom.scan();
    EXPECT_EQ(destroyed.load(), 0) << "freed a protected pointer";
  }
  dom.scan();
  EXPECT_EQ(destroyed.load(), 1);
  delete src.load();
}

TEST(Hazard, GuardRevalidatesOnRace) {
  // The publish-verify loop must settle on a value that was in `src`
  // while published; after construction guard.get() equals some valid
  // historical value. We exercise the loop by racing a swapper.
  reclaim::HazardDomain dom;
  std::atomic<Canary*> src{new Canary};
  std::atomic<bool> stop{false};
  std::vector<Canary*> garbage;
  std::thread swapper([&] {
    while (!stop.load()) {
      garbage.push_back(src.exchange(new Canary));
    }
  });
  for (int i = 0; i < 2000; ++i) {
    reclaim::HazardDomain::Guard<Canary> guard(dom, src);
    // Not retired by anyone, so always alive; this checks the guard
    // never returns a torn/null pointer mid-race.
    ASSERT_NE(guard.get(), nullptr);
  }
  stop.store(true);
  swapper.join();
  for (auto* c : garbage) delete c;
  delete src.load();
}

TEST(Hazard, StressNoUseAfterFree) {
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(8);
  std::atomic<Canary*> src{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        reclaim::HazardDomain::Guard<Canary> guard(dom, src);
        if (guard->state.load() != Canary::kAlive) violations.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    Canary* old = src.exchange(new Canary);
    dom.retire(old);
    if (i % 32 == 0) std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  dom.flush_unsafe();
  delete src.load();
  EXPECT_EQ(violations.load(), 0u);
}

TEST(Hazard, FlushUnsafeFreesRetired) {
  destroyed.store(0);
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(100);
  dom.retire(new Counted);
  dom.retire(new Counted);
  dom.flush_unsafe();
  EXPECT_EQ(destroyed.load(), 2);
}

TEST(Hazard, CountersTrackRetireAndFree) {
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(100);
  dom.retire(new Counted);
  EXPECT_EQ(dom.retired_count(), 1u);
  dom.scan();
  EXPECT_EQ(dom.freed_count(), 1u);
}

TEST(Hazard, MultipleSlotsProtectIndependently) {
  destroyed.store(0);
  reclaim::HazardDomain dom;
  std::atomic<Counted*> a{new Counted}, b{new Counted};
  Counted* pa = a.load();
  Counted* pb = b.load();
  {
    reclaim::HazardDomain::Guard<Counted> ga(dom, a, 0);
    reclaim::HazardDomain::Guard<Counted> gb(dom, b, 1);
    dom.retire(pa);
    dom.retire(pb);
    dom.scan();
    EXPECT_EQ(destroyed.load(), 0);
  }
  dom.scan();
  EXPECT_EQ(destroyed.load(), 2);
}

TEST(Hazard, GuardRejectsAnOutOfRangeSlot) {
  reclaim::HazardDomain dom;
  Counted obj;
  std::atomic<Counted*> src{&obj};
  using Guard = reclaim::HazardDomain::Guard<Counted>;
  EXPECT_THROW(Guard(dom, src, reclaim::HazardDomain::kSlotsPerThread),
               std::out_of_range);
  EXPECT_THROW(Guard(dom, src, static_cast<std::size_t>(-1)),
               std::out_of_range);
  // The last valid slot still protects.
  Guard guard(dom, src, reclaim::HazardDomain::kSlotsPerThread - 1);
  EXPECT_EQ(guard.get(), &obj);
}

TEST(Hazard, ExitedThreadsRetiredListPassesToTheNextOwner) {
  // A thread's record is its reader index's slot: a thread that exits
  // with retired objects below the scan threshold leaves them there,
  // and the next thread to take that index frees them with its scan.
  destroyed.store(0);
  reclaim::HazardDomain dom;
  dom.set_retire_threshold(100);
  std::size_t first = 0;
  std::thread([&] {
    first = rcua::plat::reader_index();
    dom.retire(new Counted);
    dom.retire(new Counted);
  }).join();
  EXPECT_EQ(destroyed.load(), 0);

  std::size_t next = 0;
  std::size_t freed = 0;
  std::thread([&] {
    next = rcua::plat::reader_index();
    freed = dom.scan();
  }).join();
  ASSERT_EQ(next, first) << "the lowest free reader index is reused";
  EXPECT_EQ(freed, 2u);
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(dom.freed_count(), 2u);
}
