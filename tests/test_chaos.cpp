// Chaos-layer tests: deterministic fault injection against the simulated
// cluster, proving the stall-tolerant reclamation actually tolerates
// stalls — a reader stalled mid-read-section and a killed worker must not
// make resize_add hang, the deferred memory must stay within the
// watchdog's budget, and the stall diagnostics must name the offender.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/rcu_array.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"

namespace rt = rcua::rt;
namespace reclaim = rcua::reclaim;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ms(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Spin until `pred` holds or ~5 s pass (keeps a broken build from
/// hanging the suite instead of failing it).
template <typename Pred>
bool eventually(Pred&& pred) {
  const auto start = Clock::now();
  while (!pred()) {
    if (elapsed_ms(start) > 5000) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

// The acceptance scenario: a reader stalled mid-read-section plus a
// killed worker, with resize_add completing within the configured
// deadline instead of hanging, the overflow list within budget, and the
// diagnostic naming the stuck reader slot.
TEST(Chaos, StalledReaderAndKilledWorkerDoNotHangResize) {
  // Declared before the cluster: pool workers consult the plan between
  // tasks, so it must outlive them (the cluster's destructor joins).
  rt::FaultPlan plan(/*seed=*/42);
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  reclaim::StallMonitor monitor(/*budget_bytes=*/1 << 20);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);

  rcua::RCUArray<int, rcua::EbrPolicy>::Options opts;
  opts.block_size = 64;
  opts.stall_policy.deadline_ns = 2 * 1000 * 1000;  // 2 ms
  opts.stall_monitor = &monitor;
  rcua::RCUArray<int, rcua::EbrPolicy> arr(cluster, 4 * 64, opts);
  for (std::size_t i = 0; i < arr.capacity(); ++i) {
    arr.write(i, static_cast<int>(i));
  }

  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = 0,
            .fire_from = 1,
            .fire_count = 1,
            .delay_ns = 300ull * 1000 * 1000});  // 300 ms mid-section stall
  plan.add({.action = rt::FaultPlan::Action::kKillWorker,
            .locale = 1,
            .fire_from = 1,
            .fire_count = 1});
  cluster.set_fault_plan(&plan);

  std::thread reader([&] {
    // One read that the plan stalls for 300 ms *inside* the EBR critical
    // section (announced, pre-retract).
    EXPECT_EQ(arr.read(3), 3);
  });
  // The fired-counter flips before the stall sleep begins, after the
  // reader has announced — from here the old-parity column is non-zero.
  ASSERT_TRUE(eventually([&] {
    return plan.fired(rt::FaultPlan::Action::kStallReader) >= 1;
  }));

  const auto start = Clock::now();
  arr.resize_add(64);  // must bound its wait at the 2 ms deadline
  const std::uint64_t took_ms = elapsed_ms(start);
  EXPECT_LT(took_ms, 150u) << "resize_add blocked on the stalled reader";

  // The stalled locale deferred its spine instead of freeing it.
  EXPECT_GE(arr.stalled_spines(), 1u);
  EXPECT_GE(arr.reclaim_pending_objects(), 1u);
  EXPECT_GE(monitor.stalls(), 1u);
  EXPECT_LE(monitor.peak_overflow_bytes(), monitor.budget_bytes());

  // The diagnostic names the stuck locale/slot/thread/epoch.
  const auto captured_diags = captured.records();
  ASSERT_FALSE(captured_diags.empty());
  const reclaim::StallDiagnostic& diag = captured_diags.front();
  EXPECT_EQ(diag.kind, reclaim::StallDiagnostic::Kind::kEbrReader);
  EXPECT_EQ(diag.locale, 0u);
  EXPECT_NE(diag.slot, SIZE_MAX);
  EXPECT_GE(diag.stuck_readers, 1u);
  EXPECT_NE(diag.thread_id, 0u);
  EXPECT_NE(diag.describe().find("reader slot"), std::string::npos);

  // The killed worker died after handing off its queue; the pool (and a
  // further resize) keeps working.
  EXPECT_TRUE(
      eventually([&] { return cluster.pool().killed_workers() >= 1; }));
  arr.resize_add(64);

  reader.join();
  // With the reader evacuated, the deferred spines reclaim on demand.
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
  EXPECT_EQ(arr.reclaim_pending_bytes(), 0u);
  EXPECT_EQ(monitor.overflow_bytes(), 0u);

  // No data was lost across the chaos.
  for (std::size_t i = 0; i < 4 * 64; ++i) {
    EXPECT_EQ(arr.read(i), static_cast<int>(i));
  }
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, DroppedBroadcastIsRetriedUntilEveryLocalePublishes) {
  rt::FaultPlan plan(/*seed=*/7);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  rcua::RCUArray<int> arr(cluster, 0, {.block_size = 32});

  plan.add({.action = rt::FaultPlan::Action::kDropBroadcast,
            .locale = 1,
            .fire_from = 1,
            .fire_count = 2});  // locale 1 misses the swap twice
  cluster.set_fault_plan(&plan);

  arr.resize_add(3 * 32);
  EXPECT_EQ(plan.fired(rt::FaultPlan::Action::kDropBroadcast), 2u);
  EXPECT_GE(arr.broadcast_retries(), 2u);

  // Every locale's spine converged on the same capacity despite the lost
  // steps.
  for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
    cluster.on(l, [&] { EXPECT_EQ(arr.view().capacity(), 3u * 32u); });
  }
  for (std::size_t i = 0; i < arr.capacity(); ++i) {
    arr.write(i, static_cast<int>(2 * i));
  }
  for (std::size_t i = 0; i < arr.capacity(); ++i) {
    EXPECT_EQ(arr.read(i), static_cast<int>(2 * i));
  }
  cluster.set_fault_plan(nullptr);
}

// resize_remove and rehome publish through the same retried broadcast as
// resize_add: a dropped step is re-broadcast, every locale converges on
// the same table, and no value is lost.
TEST(Chaos, DroppedBroadcastIsRetriedByResizeRemoveAndRehome) {
  constexpr auto kDrop = rt::FaultPlan::Action::kDropBroadcast;
  rt::FaultPlan plan(/*seed=*/19);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  rcua::RCUArray<int> arr(cluster, 6 * 32, {.block_size = 32});
  for (std::size_t i = 0; i < arr.capacity(); ++i) {
    arr.write(i, static_cast<int>(3 * i));
  }
  cluster.set_fault_plan(&plan);
  // Fires at the rule's first consultation only: locale 1 misses once.
  const rt::FaultPlan::Rule drop_once{
      .action = kDrop, .locale = 1, .fire_from = 1, .fire_count = 1};

  plan.add(drop_once);
  arr.resize_remove(2 * 32);
  EXPECT_EQ(plan.fired(kDrop), 1u);
  const std::uint64_t retries = arr.broadcast_retries();
  EXPECT_GE(retries, 1u);

  plan.add(drop_once);
  EXPECT_TRUE(arr.rehome(2));
  EXPECT_EQ(plan.fired(kDrop), 2u);
  EXPECT_GT(arr.broadcast_retries(), retries);
  cluster.set_fault_plan(nullptr);

  for (std::uint32_t l = 0; l < cluster.num_locales(); ++l) {
    cluster.on(l, [&] {
      auto view = arr.view();
      ASSERT_EQ(view.capacity(), 4u * 32u);
      for (std::size_t i = 0; i < view.capacity(); ++i) {
        EXPECT_EQ(view[i], static_cast<int>(3 * i)) << "locale " << l;
      }
    });
  }
  EXPECT_EQ(arr.block_owner(0), 2u);
}

TEST(Chaos, ResizeTerminatesUnderAPermanentBroadcastFault) {
  // A plan that drops a locale's broadcast forever must not livelock the
  // resize: past kMaxPublishAttempts the plan stops being consulted.
  rt::FaultPlan plan(/*seed=*/3);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rcua::RCUArray<int>::Options opts;
  opts.block_size = 16;
  rcua::RCUArray<int> arr(cluster, 0, opts);

  plan.add({.action = rt::FaultPlan::Action::kDropBroadcast,
            .locale = 1,
            .fire_from = 1,
            .fire_count = UINT64_MAX});  // forever
  cluster.set_fault_plan(&plan);

  arr.resize_add(16);  // must return
  EXPECT_EQ(arr.capacity(), 16u);
  EXPECT_GE(arr.broadcast_retries(), rcua::RCUArray<int>::kMaxPublishAttempts);
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, KilledWorkerHandsQueueToOverflowThreads) {
  rt::FaultPlan plan(/*seed=*/11);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  plan.add({.action = rt::FaultPlan::Action::kKillWorker,
            .fire_from = 1,
            .fire_count = 1});
  cluster.set_fault_plan(&plan);

  std::atomic<int> ran{0};
  for (int round = 0; round < 3; ++round) {
    cluster.coforall_tasks(4, [&](std::uint32_t, std::uint32_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Every submitted task ran even though a worker died mid-suite.
  EXPECT_EQ(ran.load(), 3 * 2 * 4);
  EXPECT_TRUE(
      eventually([&] { return cluster.pool().killed_workers() >= 1; }));
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, SlowRemoteFiresOnMatchingTargetOnly) {
  rt::FaultPlan plan(/*seed=*/5);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  plan.add({.action = rt::FaultPlan::Action::kSlowRemote,
            .locale = 2,
            .fire_from = 1,
            .fire_count = UINT64_MAX,
            .delay_ns = 1000});
  cluster.set_fault_plan(&plan);

  cluster.on(1, [] {});  // dst 1: filtered out
  EXPECT_EQ(plan.fired(rt::FaultPlan::Action::kSlowRemote), 0u);
  cluster.on(2, [] {});  // dst 2: fires
  EXPECT_EQ(plan.fired(rt::FaultPlan::Action::kSlowRemote), 1u);
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, ProbabilityZeroRuleNeverFires) {
  rt::FaultPlan plan(/*seed=*/9);
  plan.add({.action = rt::FaultPlan::Action::kKillWorker,
            .fire_from = 1,
            .fire_count = UINT64_MAX,
            .probability = 0.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plan.fires(rt::FaultPlan::Action::kKillWorker, 0));
  }
  EXPECT_EQ(plan.fired(rt::FaultPlan::Action::kKillWorker), 0u);
  EXPECT_EQ(plan.stats().consulted, 100u);
}

TEST(Chaos, SeededCoinReplaysIdentically) {
  // Two plans with the same seed and a probabilistic rule must fire on
  // exactly the same consultation indices (determinism contract).
  auto run = [](std::uint64_t seed) {
    rt::FaultPlan plan(seed);
    plan.add({.action = rt::FaultPlan::Action::kStallReader,
              .fire_from = 1,
              .fire_count = UINT64_MAX,
              .probability = 0.5});
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(plan.fires(rt::FaultPlan::Action::kStallReader, 0));
    }
    return fires;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(456));  // and the seed actually matters
}

TEST(Chaos, BudgetBreachFallsBackToBlockingDrain) {
  // With a 1-byte budget a stalled drain may NOT defer: the writer must
  // fall back to the blocking wait, keeping the overflow at zero — the
  // hard memory bound.
  rt::FaultPlan plan(/*seed=*/2);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  reclaim::StallMonitor monitor(/*budget_bytes=*/1);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);

  rcua::RCUArray<int, rcua::EbrPolicy>::Options opts;
  opts.block_size = 32;
  opts.stall_policy.deadline_ns = 1 * 1000 * 1000;  // 1 ms
  opts.stall_monitor = &monitor;
  rcua::RCUArray<int, rcua::EbrPolicy> arr(cluster, 32, opts);

  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = 0,
            .fire_from = 1,
            .fire_count = 1,
            .delay_ns = 40ull * 1000 * 1000});  // 40 ms
  cluster.set_fault_plan(&plan);

  std::thread reader([&] { EXPECT_EQ(arr.read(0), 0); });
  ASSERT_TRUE(eventually([&] {
    return plan.fired(rt::FaultPlan::Action::kStallReader) >= 1;
  }));

  arr.resize_add(32);  // stalls, breaches the 1-byte budget, blocks
  reader.join();

  EXPECT_GE(monitor.escalations(), 1u);
  EXPECT_EQ(arr.stalled_spines(), 0u);
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
  EXPECT_EQ(monitor.overflow_bytes(), 0u);
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, SlowRemoteAndKilledWorkerMidCacheFillLeaveNoPartialEntries) {
  // Faults landing mid-cache-fill (DESIGN.md §11): a slow-remote rule
  // delays every fill's remote fetch, and a worker is killed while
  // cached reads are running on the pool. Each fill must either
  // complete (whole-block insert) or be discarded on unwind — never a
  // partial-block entry — and the workload must finish inside the stall
  // budget with no stale or corrupt value served.
  rt::FaultPlan plan(/*seed=*/17);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kBlockBytes = kBlock * sizeof(int);
  rcua::RCUArray<int, rcua::EbrPolicy> arr(
      cluster, 4 * kBlock,
      {.block_size = kBlock, .cache_capacity_bytes = 1u << 20});
  for (std::size_t i = 0; i < arr.capacity(); ++i) {
    arr.write(i, static_cast<int>(i));
  }

  plan.add({.action = rt::FaultPlan::Action::kSlowRemote,
            .locale = 1,
            .fire_from = 1,
            .fire_count = UINT64_MAX,
            .delay_ns = 200 * 1000});  // every fill to locale 1 is slow
  plan.add({.action = rt::FaultPlan::Action::kKillWorker,
            .fire_from = 1,
            .fire_count = 1});  // dies while fills are in flight
  cluster.set_fault_plan(&plan);

  const auto start = Clock::now();
  // Cached reads from POOL tasks on every locale (so the killed worker
  // lands inside the workload), racing element writes that invalidate
  // and force refills under the same faults.
  std::atomic<int> bad{0};
  for (int round = 0; round < 5; ++round) {
    cluster.coforall_tasks(2, [&](std::uint32_t, std::uint32_t) {
      for (std::size_t i = 0; i < arr.capacity(); ++i) {
        if (arr.read(i) != static_cast<int>(i)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    EXPECT_EQ(bad.load(), 0) << "round " << round;
    const std::size_t idx = kBlock + static_cast<std::size_t>(round);
    arr.write(idx, 1000 + round);  // invalidate a hot remote block
    EXPECT_EQ(arr.read(idx), 1000 + round);
    arr.write(idx, static_cast<int>(idx));  // restore for the next round
  }
  EXPECT_LT(elapsed_ms(start), 5000u) << "cache fills blew the stall budget";
  EXPECT_TRUE(
      eventually([&] { return cluster.pool().killed_workers() >= 1; }));
  EXPECT_GE(plan.fired(rt::FaultPlan::Action::kSlowRemote), 1u);

  // No partial-block entries: every resident and every ever-inserted
  // byte is a whole block, and the ledger balances on both locales.
  for (std::uint32_t l = 0; l < 2; ++l) {
    EXPECT_EQ(arr.cache_bytes_used_at(l) % kBlockBytes, 0u);
    const auto cs = arr.cache_stats_at(l);
    EXPECT_EQ(cs.inserted_bytes % kBlockBytes, 0u);
    EXPECT_EQ(cs.evicted_bytes % kBlockBytes, 0u);
    EXPECT_EQ(cs.inserted_bytes,
              cs.evicted_bytes + arr.cache_bytes_used_at(l));
  }
  cluster.set_fault_plan(nullptr);
}

TEST(Chaos, QsbrReaderStallNeverBlocksResize) {
  // Under QSBR a resize defers the spine unconditionally, so even a long
  // mid-section stall cannot slow it — and the stalled reader's
  // participation keeps the deferred spine alive until it is quiescent
  // (ASan would catch a premature free).
  rt::FaultPlan plan(/*seed=*/13);  // outlives the cluster's workers
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rcua::RCUArray<int> arr(cluster, 64, {.block_size = 64});
  for (std::size_t i = 0; i < 64; ++i) arr.write(i, 1);

  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = 0,
            .fire_from = 1,
            .fire_count = 1,
            .delay_ns = 100ull * 1000 * 1000});  // 100 ms
  cluster.set_fault_plan(&plan);

  std::thread reader([&] { EXPECT_EQ(arr.read(5), 1); });
  ASSERT_TRUE(eventually([&] {
    return plan.fired(rt::FaultPlan::Action::kStallReader) >= 1;
  }));

  const auto start = Clock::now();
  arr.resize_add(64);
  EXPECT_LT(elapsed_ms(start), 80u);
  reader.join();
  EXPECT_EQ(arr.capacity(), 128u);
  cluster.set_fault_plan(nullptr);
}
