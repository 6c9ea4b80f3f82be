// Schedule-exploration tests for QSBR (Algorithm 2): the checkpoint's
// min-observed-epoch scan, the park/unpark transitions that remove a
// thread from that scan, and the one-owner rule of the reader-bank slot
// each thread's observation lives in.
//
// Reclamation is modeled with defer_fn deleters that flip `freed` flags in
// an arena owned by the scenario (never a real free), so a protocol bug is
// detected as a flag read.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "reclaim/qsbr.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::ScopedMutation;
using rcua::testing::Scheduler;

/// Per-schedule QSBR world: its own domain (so slots never carry over
/// between schedules), plus the modeled object.
struct World {
  rcua::reclaim::Qsbr qsbr;
  std::atomic<bool> freed{false};
  std::atomic<bool> holder_visible{false};
  std::atomic<bool> holder_done{false};

  static void mark_freed(void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true,
                                              std::memory_order_seq_cst);
  }
};

/// The holder participates (observing the pre-defer state) and then uses a
/// protected reference across schedule points; per the QSBR contract that
/// reference is valid until the holder's own next checkpoint. Afterwards it
/// parks — going idle under the baton, so its slot stops gating minima at
/// a schedule-controlled instant (the index pool retires an exited thread's
/// slot at a time the OS picks, not the schedule).
void holder_task(const std::shared_ptr<World>& w) {
  w->qsbr.ensure_participant();
  w->holder_visible.store(true, std::memory_order_seq_cst);
  rcua::testing::sched_point("test.holder.acquired");
  if (w->freed.load(std::memory_order_seq_cst)) {
    rcua::testing::sched_violation(
        "object reclaimed before the holder's checkpoint");
  }
  rcua::testing::sched_point("test.holder.still_using");
  if (w->freed.load(std::memory_order_seq_cst)) {
    rcua::testing::sched_violation(
        "object reclaimed before the holder's checkpoint");
  }
  w->qsbr.checkpoint();  // quiescent: the reference is dead from here on
  w->qsbr.park();
  w->holder_done.store(true, std::memory_order_seq_cst);
}

/// The reclaimer defers the object once the holder is visible to the
/// min-epoch scan. The first checkpoint runs while the holder may still be
/// inside its critical region (the mutation reclaims here); the second runs
/// after the holder has quiesced and must always reclaim.
void reclaimer_task(const std::shared_ptr<World>& w) {
  rcua::testing::sched_await("test.wait_holder_visible", [w] {
    return w->holder_visible.load(std::memory_order_seq_cst);
  });
  w->qsbr.defer_fn(&World::mark_freed, &w->freed);
  w->qsbr.checkpoint();
  rcua::testing::sched_await("test.wait_holder_done", [w] {
    return w->holder_done.load(std::memory_order_seq_cst);
  });
  w->qsbr.checkpoint();
  if (w->qsbr.pending_on_this_thread() != 0) {
    rcua::testing::sched_violation(
        "deferral survived a checkpoint with every other thread quiescent");
  }
}

void holder_reclaimer_scenario(Scheduler& sched) {
  auto w = std::make_shared<World>();
  sched.spawn("holder", [w] { holder_task(w); });
  sched.spawn("reclaimer", [w] { reclaimer_task(w); });
}

TEST(SchedQsbr, MutationIgnoreMinFound) {
  ScopedMutation mut(&rcua::testing::mutations().qsbr_ignore_min);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, holder_reclaimer_scenario);
  ASSERT_TRUE(result.found)
      << "checkpoint ignoring the min observed epoch (lines 6-8) must free "
         "under a live holder and be caught";

  // Deterministic replay from the printed seed.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again =
      rcua::testing::explore(replay, holder_reclaimer_scenario);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedQsbr, MutationIgnoreMinFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().qsbr_ignore_min);
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 10000;
  opts.preemption_bound = 2;
  const ExploreResult result =
      rcua::testing::explore(opts, holder_reclaimer_scenario);
  ASSERT_TRUE(result.found);
}

TEST(SchedQsbr, NegativeControlRandom) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 1500;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, holder_reclaimer_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedQsbr, NegativeControlDfsExhaustive) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 2;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, holder_reclaimer_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_TRUE(result.exhausted)
      << "expected to enumerate the full 2-preemption schedule tree, ran "
      << result.schedules_run;
}

/// Both tasks are participants before the holder takes its reference; the
/// reclaimer then defers the object and checkpoints while the holder may
/// still use it. On its own slot the holder's observation gates that
/// checkpoint. On one shared slot (shared_reader_slot) the reclaimer's
/// defer overwrites the holder's observation with the new epoch, and the
/// checkpoint frees the object under the holder.
void shared_slot_scenario(Scheduler& sched) {
  auto w = std::make_shared<World>();
  sched.spawn("reclaimer", [w] {
    w->qsbr.ensure_participant();
    reclaimer_task(w);
  });
  sched.spawn("holder", [w] { holder_task(w); });
}

TEST(SchedQsbr, MutationSharedReaderSlotFound) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found)
      << "a defer that overwrites another thread's observation must free "
         "under the holder and be caught";

  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again =
      rcua::testing::explore(replay, shared_slot_scenario);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedQsbr, MutationSharedReaderSlotFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 10000;
  opts.preemption_bound = 2;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found);
}

TEST(SchedQsbr, NegativeControlSharedSlotScenario) {
  // Unmutated, each task owns its slot: no schedule frees under the holder.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 1500;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));

  ExploreOptions dfs;
  dfs.mode = ExploreMode::kDfs;
  dfs.schedules = 200000;
  dfs.preemption_bound = 2;
  dfs.stop_on_violation = false;
  const ExploreResult exhaustive =
      rcua::testing::explore(dfs, shared_slot_scenario);
  EXPECT_FALSE(exhaustive.found) << exhaustive.message << "\n"
                                 << exhaustive.trace;
  EXPECT_TRUE(exhaustive.exhausted)
      << "expected to enumerate the full 2-preemption schedule tree, ran "
      << exhaustive.schedules_run;
}

// A parked thread must stop gating the safe-epoch minimum: with the holder
// parked, the reclaimer's checkpoint reclaims even though the holder's
// observed epoch is stale. This drives the qsbr.park.* schedule points
// and checks the liveness half of parking (the safety half — a *non*-parked
// stale holder blocks reclaim — is the negative control above).
TEST(SchedQsbr, ParkedThreadDoesNotGateReclamation) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 300;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto w = std::make_shared<World>();
        sched.spawn("holder", [w] {
          w->qsbr.ensure_participant();
          rcua::testing::sched_point("test.holder.idle");
          // Going idle with no protected references: park.
          w->qsbr.park();
          w->holder_visible.store(true, std::memory_order_seq_cst);
          rcua::testing::sched_await("test.holder.wait_freed", [w] {
            return w->freed.load(std::memory_order_seq_cst);
          });
          w->qsbr.unpark();
          w->qsbr.checkpoint();
        });
        sched.spawn("reclaimer", [w] {
          rcua::testing::sched_await("test.wait_parked", [w] {
            return w->holder_visible.load(std::memory_order_seq_cst);
          });
          w->qsbr.defer_fn(&World::mark_freed, &w->freed);
          const std::size_t n = w->qsbr.checkpoint();
          if (n != 1 || !w->freed.load(std::memory_order_seq_cst)) {
            rcua::testing::sched_violation(
                "parked holder still gated the checkpoint");
          }
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

}  // namespace
