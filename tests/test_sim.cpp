// Unit tests for src/sim: the virtual-time performance model — task
// clocks, the block-touch locality model, contention resources, and the
// cost-model plumbing.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/task_clock.hpp"

namespace sim = rcua::sim;

TEST(TaskClock, DisabledByDefault) {
  EXPECT_FALSE(sim::enabled());
  EXPECT_EQ(sim::current(), nullptr);
  sim::charge(100);  // must be a no-op, not a crash
  EXPECT_EQ(sim::now_v(), 0u);
}

TEST(TaskClock, ChargeAccumulates) {
  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  EXPECT_TRUE(sim::enabled());
  sim::charge(100);
  sim::charge(50.7);
  EXPECT_EQ(clock.vtime_ns, 150u);
  EXPECT_EQ(clock.charge_events, 2u);
}

TEST(TaskClock, ScopesNest) {
  sim::TaskClock outer, inner;
  sim::ClockScope a(outer);
  sim::charge(10);
  {
    sim::ClockScope b(inner);
    sim::charge(5);
  }
  sim::charge(10);
  EXPECT_EQ(outer.vtime_ns, 20u);
  EXPECT_EQ(inner.vtime_ns, 5u);
}

TEST(TaskClock, AdvanceToNeverRewinds) {
  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::charge(100);
  sim::advance_to(50);
  EXPECT_EQ(clock.vtime_ns, 100u);
  sim::advance_to(200);
  EXPECT_EQ(clock.vtime_ns, 200u);
}

TEST(TaskClock, ResetClears) {
  sim::TaskClock clock;
  clock.vtime_ns = 5;
  clock.last_block_id = 3;
  clock.charge_events = 2;
  clock.reset();
  EXPECT_EQ(clock.vtime_ns, 0u);
  EXPECT_EQ(clock.last_block_id, ~0ULL);
  EXPECT_EQ(clock.charge_events, 0u);
}

TEST(TouchModel, SequentialLocalIsCachedAfterFirstMiss) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.dram_miss_ns = 100;
  m.local_cached_ns = 1;

  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::touch_block(7, /*remote=*/false, /*is_write=*/false);
  EXPECT_EQ(clock.vtime_ns, 100u);
  sim::touch_block(7, false, false);
  sim::touch_block(7, false, false);
  EXPECT_EQ(clock.vtime_ns, 102u);
}

TEST(TouchModel, RandomRemoteAlternationPaysFullGets) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.remote_get_ns = 1000;
  m.remote_stream_ns = 10;

  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::touch_block(1, true, false);
  sim::touch_block(2, true, false);
  sim::touch_block(1, true, false);
  EXPECT_EQ(clock.vtime_ns, 3000u);
}

TEST(TouchModel, RemoteStreamingIsCheap) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.remote_get_ns = 1000;
  m.remote_stream_ns = 10;

  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::touch_block(1, true, false);
  for (int i = 0; i < 9; ++i) sim::touch_block(1, true, false);
  EXPECT_EQ(clock.vtime_ns, 1000u + 9 * 10u);
}

TEST(TouchModel, WriteUsesPutCost) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.remote_get_ns = 1000;
  m.remote_put_ns = 2000;

  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::touch_block(1, true, /*is_write=*/true);
  EXPECT_EQ(clock.vtime_ns, 2000u);
}

TEST(TouchModel, ExtraOnMissOnlyOnBlockSwitch) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.dram_miss_ns = 100;
  m.local_cached_ns = 1;

  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  sim::touch_block(1, false, false, /*extra_on_miss=*/40);
  EXPECT_EQ(clock.vtime_ns, 140u);
  sim::touch_block(1, false, false, 40);  // cached: no extra
  EXPECT_EQ(clock.vtime_ns, 141u);
}

TEST(Resource, PureReservationQueues) {
  sim::VirtualResource r;
  EXPECT_EQ(r.acquire_at(0, 10), 10u);    // idle: starts immediately
  EXPECT_EQ(r.acquire_at(0, 10), 20u);    // queued behind the first
  EXPECT_EQ(r.acquire_at(100, 10), 110u); // arrives after free: no wait
  EXPECT_EQ(r.next_free(), 110u);
}

TEST(Resource, UseAdvancesAttachedClock) {
  sim::VirtualResource r;
  sim::TaskClock a, b;
  {
    sim::ClockScope scope(a);
    r.use(10);
  }
  {
    sim::ClockScope scope(b);
    r.use(10);
  }
  EXPECT_EQ(a.vtime_ns, 10u);
  EXPECT_EQ(b.vtime_ns, 20u);  // b queued behind a
}

TEST(Resource, UseIsNoopWithoutClock) {
  sim::VirtualResource r;
  r.use(10);
  EXPECT_EQ(r.next_free(), 0u);
}

TEST(Resource, OwnedUseIsCheapForSoloTask) {
  sim::VirtualResource r;
  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  r.use_owned(1000, 10);  // first touch: full transfer
  EXPECT_EQ(clock.vtime_ns, 1000u);
  r.use_owned(1000, 10);  // still own the line
  r.use_owned(1000, 10);
  EXPECT_EQ(clock.vtime_ns, 1020u);
}

TEST(Resource, OwnedUseSerializesAlternatingTasks) {
  sim::VirtualResource r;
  sim::TaskClock a, b;
  for (int i = 0; i < 3; ++i) {
    {
      sim::ClockScope scope(a);
      r.use_owned(1000, 10);
    }
    {
      sim::ClockScope scope(b);
      r.use_owned(1000, 10);
    }
  }
  // Every access after the first transferred the line: 6 transfers total.
  EXPECT_EQ(b.vtime_ns, 6000u);
}

TEST(Resource, ExtendUntilOnlyGrows) {
  sim::VirtualResource r;
  r.extend_until(100);
  EXPECT_EQ(r.next_free(), 100u);
  r.extend_until(50);
  EXPECT_EQ(r.next_free(), 100u);
}

TEST(Resource, ResetFreesImmediately) {
  sim::VirtualResource r;
  r.acquire_at(0, 500);
  r.reset();
  EXPECT_EQ(r.next_free(), 0u);
  EXPECT_EQ(r.acquire_at(0, 5), 5u);
}

TEST(Resource, ConcurrentReservationsNeverOverlap) {
  sim::VirtualResource r;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  std::atomic<bool> bad{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::uint64_t prev_done = 0;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t done = r.acquire_at(prev_done, 3);
        if (done < prev_done + 3) bad.store(true);
        prev_done = done;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(bad.load());
  // Total service booked must equal exactly threads*iters*3.
  EXPECT_EQ(r.next_free(), static_cast<std::uint64_t>(kThreads) * kIters * 3);
}

TEST(CostModel, OverrideRestores) {
  const double before = sim::CostModel::get().remote_get_ns;
  {
    sim::CostModelOverride save;
    sim::CostModel::mutable_instance().remote_get_ns = 1.0;
    EXPECT_DOUBLE_EQ(sim::CostModel::get().remote_get_ns, 1.0);
  }
  EXPECT_DOUBLE_EQ(sim::CostModel::get().remote_get_ns, before);
}
