// Schedule-exploration tests for RCUArray's resize protocol (Algorithm 3)
// under both reclamation policies.
//
// Lemma 6 is the property under test: a reference obtained from index()
// before a resize still reads and writes the same element afterwards, even
// though the resize reclaims the old spine — because snapshot clones
// recycle the block pointers. Lemma 1 (at most two live spines per locale
// under EBR) is asserted at every explored interleaving point.
//
// The Cluster (and its task pool) is shared across schedules; the array
// and, for QSBR, the registry/domain are rebuilt per schedule. Arrays are
// constructed empty so the *scheduled* writer task performs every resize:
// that routes all coforall bodies through the deterministic scheduler and
// keeps pool workers out of the per-schedule QSBR domain.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "core/rcu_array.hpp"
#include "core/snapshot.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/this_task.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::EbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;
using rcua::Snapshot;
using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::ScopedMutation;
using rcua::testing::Scheduler;

constexpr std::uint32_t kLocales = 2;
constexpr std::size_t kBlock = 4;

rcua::rt::ClusterConfig small_cluster() {
  rcua::rt::ClusterConfig cfg;
  cfg.num_locales = kLocales;
  cfg.workers_per_locale = 1;
  return cfg;
}

/// Reader side of the Lemma 6 property, shared by both policies: take a
/// reference before the concurrent resize, write through it, and verify
/// identity and value through fresh index() calls while the resize runs.
template <typename Array>
void lemma6_reader(Array& arr, std::atomic<bool>& ready) {
  rcua::testing::sched_await("test.wait_ready", [&ready] {
    return ready.load(std::memory_order_seq_cst);
  });
  int& ref = arr.index(1);
  ref = 42;
  rcua::testing::sched_point("test.reader.holding");
  int& again = arr.index(1);
  if (&again != &ref) {
    rcua::testing::sched_violation(
        "Lemma 6 violated: index(1) moved across a concurrent resize");
    return;
  }
  if (again != 42) {
    rcua::testing::sched_violation(
        "Lemma 6 violated: write through a pre-resize reference was lost");
    return;
  }
  ref = 43;  // write through the old reference after the resize...
  rcua::testing::sched_point("test.reader.rewrote");
  if (arr.index(1) != 43) {  // ...must be visible through the new spine
    rcua::testing::sched_violation(
        "Lemma 6 violated: post-resize write through old reference lost");
  }
}

TEST(SchedRcuArray, Lemma6UnderEbrPolicy) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 400;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [&cluster](Scheduler& sched) {
        struct State {
          explicit State(rcua::rt::Cluster& c)
              : arr(c, 0, {.block_size = kBlock}) {}
          RCUArray<int, EbrPolicy> arr;
          std::atomic<bool> ready{false};
        };
        auto st = std::make_shared<State>(cluster);
        sched.spawn("reader", [st] {
          lemma6_reader(st->arr, st->ready);
          // Lemma 1: grow-only resizes keep at most two spines live per
          // locale (old + freshly published, until the drain completes).
          if (Snapshot<int>::live_count() > 2u * kLocales) {
            rcua::testing::sched_violation(
                "Lemma 1 violated: more than two live spines per locale");
          }
        });
        sched.spawn("writer", [st] {
          st->arr.resize_add(kBlock);  // first block: element 1 exists
          st->ready.store(true, std::memory_order_seq_cst);
          st->arr.resize_add(kBlock);  // the resize raced against the ref
        });
        sched.on_finish([st](Scheduler& s) {
          // EBR reclaims synchronously inside resize: only the current
          // spine survives on each locale.
          if (Snapshot<int>::live_count() != kLocales) {
            s.violation("old spines not reclaimed after EBR resize");
          }
          if (st->arr.capacity() != 2 * kBlock) {
            s.violation("resize_add lost blocks");
          }
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
  EXPECT_EQ(Snapshot<int>::live_count(), 0u);
}

// The budget-breach fallback (DESIGN.md §8): with a 1-byte overflow
// budget a spine drain that times out may not defer, so the writer blocks
// until the reader leaves. That block must wait through the scheduler: a
// writer spinning there would keep the baton from the reader it waits
// for, and the schedule would never finish. The reader holds its view
// until the breach is recorded, so every schedule takes the fallback.
TEST(SchedRcuArray, BudgetBreachFallbackYieldsToTheScheduler) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 400;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [&cluster](Scheduler& sched) {
        struct State {
          explicit State(rcua::rt::Cluster& c)
              : arr(c, 0,
                    {.block_size = kBlock,
                     .stall_policy = {.deadline_ns = 1},
                     .stall_monitor = &monitor}) {}
          rcua::reclaim::StallMonitor monitor{/*budget_bytes=*/1};
          RCUArray<int, EbrPolicy> arr;
          std::atomic<bool> ready{false};
          std::atomic<bool> pinned{false};
          std::atomic<bool> resized{false};
        };
        auto st = std::make_shared<State>(cluster);
        st->monitor.set_sink(nullptr);
        sched.spawn("reader", [st] {
          rcua::testing::sched_await("test.wait_ready", [st] {
            return st->ready.load(std::memory_order_seq_cst);
          });
          auto view = st->arr.view();
          st->pinned.store(true, std::memory_order_seq_cst);
          rcua::testing::sched_point("test.reader.pinned");
          if (view.capacity() != kBlock || view[1] != 7) {
            rcua::testing::sched_violation("view lost its pinned values");
          }
          rcua::testing::sched_await("test.wait_breach", [st] {
            return st->monitor.escalations() > 0;
          });
          if (st->resized.load(std::memory_order_seq_cst)) {
            rcua::testing::sched_violation(
                "resize finished while a view pinned the old spine");
          }
          if (view.capacity() != kBlock || view[1] != 7) {
            rcua::testing::sched_violation("view lost its pinned values");
          }
        });
        sched.spawn("writer", [st] {
          st->arr.resize_add(kBlock);
          st->arr.write(1, 7);
          st->ready.store(true, std::memory_order_seq_cst);
          rcua::testing::sched_await("test.wait_pinned", [st] {
            return st->pinned.load(std::memory_order_seq_cst);
          });
          st->arr.resize_add(kBlock);  // times out on the view, blocks
          st->resized.store(true, std::memory_order_seq_cst);
        });
        sched.on_finish([st](Scheduler& s) {
          if (st->monitor.escalations() != 1) {
            s.violation("the view's locale did not breach exactly once");
          }
          if (st->arr.reclaim_pending_objects() != 0 ||
              st->arr.stalled_spines() != 0 ||
              st->monitor.overflow_bytes() != 0) {
            s.violation("a breached drain deferred instead of blocking");
          }
          if (Snapshot<int>::live_count() != kLocales) {
            s.violation("old spines not reclaimed after the breach");
          }
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
  EXPECT_EQ(Snapshot<int>::live_count(), 0u);
}

TEST(SchedRcuArray, Lemma6UnderQsbrPolicy) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 400;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [&cluster](Scheduler& sched) {
        struct State {
          explicit State(rcua::rt::Cluster& c)
              : arr(c, 0, {.block_size = kBlock, .qsbr = &qsbr}) {}
          rcua::reclaim::Qsbr qsbr;
          RCUArray<int, QsbrPolicy> arr;
          std::atomic<bool> ready{false};
        };
        auto st = std::make_shared<State>(cluster);
        sched.spawn("reader", [st] { lemma6_reader(st->arr, st->ready); });
        sched.spawn("writer", [st] {
          st->arr.resize_add(kBlock);
          st->ready.store(true, std::memory_order_seq_cst);
          st->arr.resize_add(kBlock);
        });
        sched.on_finish([st](Scheduler& s) {
          if (st->arr.capacity() != 2 * kBlock) {
            s.violation("resize_add lost blocks");
          }
          // All tasks have been joined (their records no longer hold
          // references), so draining every defer list is safe; afterwards
          // only the live spine per locale remains.
          st->qsbr.flush_unsafe();
          if (Snapshot<int>::live_count() != kLocales) {
            s.violation("old spines leaked after QSBR flush");
          }
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
  EXPECT_EQ(Snapshot<int>::live_count(), 0u);
}

// The shrink extension under QSBR: a reference into a removed block stays
// usable until its holder checkpoints, because the dropped blocks are
// deferred through the same QSBR machinery as spines (this drives the
// rcua.resize.recycle_block schedule points).
TEST(SchedRcuArray, RemoveDefersBlockReclamationUnderQsbr) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 300;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [&cluster](Scheduler& sched) {
        struct State {
          explicit State(rcua::rt::Cluster& c)
              : arr(c, 0, {.block_size = kBlock, .qsbr = &qsbr}) {}
          rcua::reclaim::Qsbr qsbr;
          RCUArray<int, QsbrPolicy> arr;
          std::atomic<bool> ready{false};
          std::atomic<bool> ref_taken{false};
        };
        auto st = std::make_shared<State>(cluster);
        sched.spawn("reader", [st] {
          rcua::testing::sched_await("test.wait_ready", [st] {
            return st->ready.load(std::memory_order_seq_cst);
          });
          // Reference into the block the writer is about to drop. Taken
          // before the remove (index() into removed space would be out of
          // bounds); the interesting interleavings are the *uses* of the
          // reference against the remove's publish/defer steps.
          int& ref = st->arr.index(kBlock + 1);
          ref = 7;
          st->ref_taken.store(true, std::memory_order_seq_cst);
          rcua::testing::sched_point("test.reader.holding_removed");
          if (ref != 7) {
            rcua::testing::sched_violation(
                "reference into removed block corrupted before checkpoint");
          }
          rcua::testing::sched_point("test.reader.still_holding");
          ref = 8;  // the block must still be writable until we quiesce
          if (ref != 8) {
            rcua::testing::sched_violation(
                "reference into removed block corrupted before checkpoint");
          }
        });
        sched.spawn("writer", [st] {
          st->arr.resize_add(2 * kBlock);
          st->ready.store(true, std::memory_order_seq_cst);
          rcua::testing::sched_await("test.wait_ref_taken", [st] {
            return st->ref_taken.load(std::memory_order_seq_cst);
          });
          st->arr.resize_remove(kBlock);  // drops the reader's block
        });
        sched.on_finish([st](Scheduler& s) {
          if (st->arr.capacity() != kBlock) {
            s.violation("resize_remove kept the wrong capacity");
          }
          st->qsbr.flush_unsafe();
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(Snapshot<int>::live_count(), 0u);
}

// capacity() counts only the blocks every locale serves: resize_add
// stores the count after its last per-locale publish. A reader on locale
// 1 that wakes on the first nonzero capacity() must find element
// capacity() - 1 in bounds on its own locale. The
// `capacity_before_publish` mutation stores the count before the
// publishes, so a reader that wakes before locale 1 publishes throws.
struct CapacityState {
  // Cache pinned off, so the schedule space does not depend on
  // RCUA_CACHE_CAPACITY_BYTES; the bounds check precedes any cache use.
  explicit CapacityState(rcua::rt::Cluster& c)
      : cluster(c),
        arr(c, 0, {.block_size = kBlock, .cache_capacity_bytes = 0}) {}
  rcua::rt::Cluster& cluster;
  RCUArray<int, EbrPolicy> arr;
};

void capacity_scenario(rcua::rt::Cluster& cluster, Scheduler& sched) {
  auto st = std::make_shared<CapacityState>(cluster);
  sched.spawn("reader", [st] {
    const rcua::rt::LocaleScope on_locale_1(st->cluster, 1);
    rcua::testing::sched_await("test.wait_capacity",
                               [st] { return st->arr.capacity() > 0; });
    try {
      (void)st->arr.read(st->arr.capacity() - 1);
    } catch (const std::out_of_range&) {
      rcua::testing::sched_violation(
          "capacity() counted a block locale 1 does not serve yet");
    }
  });
  sched.spawn("writer", [st] { st->arr.resize_add(kBlock); });
  sched.on_finish([st](Scheduler& s) {
    if (st->arr.capacity() != kBlock) s.violation("resize_add lost blocks");
  });
}

TEST(SchedRcuArray, MutationCapacityBeforePublishFound) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(&rcua::testing::mutations().capacity_before_publish);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 4000;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { capacity_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "counting blocks in capacity() before every locale serves them "
         "must be caught";

  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again = rcua::testing::explore(
      replay, [&cluster](Scheduler& s) { capacity_scenario(cluster, s); });
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedRcuArray, MutationCapacityBeforePublishFoundByDfs) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(&rcua::testing::mutations().capacity_before_publish);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 20000;
  opts.preemption_bound = 2;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { capacity_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "the store->reader->publish window must be reachable by bounded "
         "DFS (ran "
      << result.schedules_run << " schedules)";
}

TEST(SchedRcuArray, CapacityAfterPublishNegativeControlRandom) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 400;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { capacity_scenario(cluster, s); });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedRcuArray, CapacityAfterPublishNegativeControlDfs) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 2000;
  opts.preemption_bound = 2;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { capacity_scenario(cluster, s); });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

}  // namespace
