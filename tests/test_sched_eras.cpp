// Schedule-exploration tests for the era reclaimers' read-side protocol
// (reclaim::Ibr / reclaim::HazardEras): ReadGuard::protect's
// publish-then-reverify loop is what pins the loaded object's lifetime
// tags against the reservation, and each scheme has its own tempting
// wrong version:
//
//   ibr_reserve_after_load  — load the pointer first, then reserve the
//     era that was seen (no reverify). A writer interleaved between the
//     load and the publish retires + scans against an empty reservation
//     table and frees the loaded object.
//   he_clear_before_access  — drop the hazard-era slot as soon as the
//     pointer is in hand, before the section's accesses. The very next
//     retire + scan sees no overlapping reservation and frees the object
//     under the live guard.
//   shared_reader_slot      — hand every reader reader-bank slot 0. A
//     reader whose section ends restores the reservation it found at
//     entry, wiping out a second reader's that landed in between.
//
// The harness must find a violating schedule for each mutation (random
// and bounded DFS), the unmutated protocol must survive the same budget
// clean, and — since each mutation is compiled only into its own shape's
// protect() — running a mutation against the *other* scheme must find
// nothing. One more DFS pins the bounded-memory side: a held IBR reader
// whose first protect retried still pins at most two retired objects.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "reclaim/eras.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::ScopedMutation;
using rcua::testing::Scheduler;

void flag_free(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

/// "Reclamation" flips a freed-flag, so a protocol bug is detected as a
/// flag read, not a real use-after-free. Each task reads on its own
/// thread's reservation slot; no sched site names the slot, so every
/// printed seed replays whatever reader indices the task threads take.
template <typename Dom>
struct Arena {
  Arena() { current.store(&freed[0], std::memory_order_relaxed); }

  Dom dom;
  std::atomic<bool> freed[8] = {};
  std::atomic<std::atomic<bool>*> current{nullptr};
  /// Writer-private: era current when the live object was published.
  std::uint64_t live_birth = 0;
};

template <typename Dom>
void reader_once(Arena<Dom>& a) {
  typename Dom::ReadGuard guard(a.dom);
  std::atomic<bool>* p = guard.protect(a.current);
  rcua::testing::sched_point("test.reader.deref");
  if (p->load(std::memory_order_seq_cst)) {
    rcua::testing::sched_violation(
        "reader dereferenced an era-reclaimed object");
  }
}

/// Writer with the interval retire protocol RCUArray's resize uses:
/// sample the successor's birth era BEFORE publishing it, retire the old
/// object under its own [birth, retire] tags (era bump + scan are inside
/// retire, cadence 1).
template <typename Dom>
void writer_round(Arena<Dom>& a, std::size_t r) {
  std::atomic<bool>* old = a.current.load(std::memory_order_seq_cst);
  const std::uint64_t fresh_birth = a.dom.current_era();
  rcua::testing::sched_point("test.writer.publish");
  a.current.store(&a.freed[r], std::memory_order_seq_cst);
  a.dom.retire(&flag_free, old, /*bytes=*/1,
               std::exchange(a.live_birth, fresh_birth));
}

template <typename Dom>
void writer_rounds(Arena<Dom>& a, std::size_t rounds) {
  for (std::size_t r = 1; r <= rounds; ++r) writer_round(a, r);
}

template <typename Dom>
void two_round_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena<Dom>>();
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("writer", [a] { writer_rounds(*a, 2); });
  sched.on_finish([a](Scheduler& s) {
    // Liveness half of the bounded-memory contract: with every
    // reservation released, one more scan must drain the retire list.
    a->dom.scan();
    if (a->dom.pending_objects() != 0) {
      s.violation("era retire list never drained after readers left");
    }
    if (!a->freed[0].load() || !a->freed[1].load()) {
      s.violation("a retired object was never reclaimed");
    }
  });
}

}  // namespace

// -- IBR: reserve-after-load -------------------------------------------

TEST(SchedEras, IbrMutationReserveAfterLoadFound) {
  ScopedMutation mut(&rcua::testing::mutations().ibr_reserve_after_load);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario<rcua::reclaim::Ibr>);
  ASSERT_TRUE(result.found)
      << "reserving after the pointer load (no reverify) must be caught";

  // The printed seed replays the violating schedule deterministically.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again =
      rcua::testing::explore(replay, two_round_scenario<rcua::reclaim::Ibr>);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.schedules_run, 1u);
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedEras, IbrMutationReserveAfterLoadFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().ibr_reserve_after_load);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario<rcua::reclaim::Ibr>);
  ASSERT_TRUE(result.found)
      << "the load/reserve race needs one preemption; bounded DFS must "
         "reach it";
}

TEST(SchedEras, IbrNegativeControlRandom) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario<rcua::reclaim::Ibr>);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedEras, IbrNegativeControlDfs) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario<rcua::reclaim::Ibr>);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

// -- Hazard eras: clear-before-access ----------------------------------

TEST(SchedEras, HeMutationClearBeforeAccessFound) {
  ScopedMutation mut(&rcua::testing::mutations().he_clear_before_access);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result = rcua::testing::explore(
      opts, two_round_scenario<rcua::reclaim::HazardEras>);
  ASSERT_TRUE(result.found)
      << "clearing the era slot before the section's access must be caught";

  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again = rcua::testing::explore(
      replay, two_round_scenario<rcua::reclaim::HazardEras>);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.schedules_run, 1u);
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedEras, HeMutationClearBeforeAccessFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().he_clear_before_access);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result = rcua::testing::explore(
      opts, two_round_scenario<rcua::reclaim::HazardEras>);
  ASSERT_TRUE(result.found)
      << "the premature-release race needs one preemption; bounded DFS "
         "must reach it";
}

TEST(SchedEras, HeNegativeControlRandom) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, two_round_scenario<rcua::reclaim::HazardEras>);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedEras, HeNegativeControlDfs) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, two_round_scenario<rcua::reclaim::HazardEras>);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

// -- Mutations are shape-gated -----------------------------------------

TEST(SchedEras, MutationsDoNotLeakAcrossShapes) {
  // Each mutation is compiled only into its own shape's protect():
  // running it against the other scheme is one more negative control.
  {
    ScopedMutation mut(&rcua::testing::mutations().ibr_reserve_after_load);
    ExploreOptions opts;
    opts.mode = ExploreMode::kRandom;
    opts.schedules = 2000;
    opts.stop_on_violation = false;
    const ExploreResult result = rcua::testing::explore(
        opts, two_round_scenario<rcua::reclaim::HazardEras>);
    EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  }
  {
    ScopedMutation mut(&rcua::testing::mutations().he_clear_before_access);
    ExploreOptions opts;
    opts.mode = ExploreMode::kRandom;
    opts.schedules = 2000;
    opts.stop_on_violation = false;
    const ExploreResult result =
        rcua::testing::explore(opts, two_round_scenario<rcua::reclaim::Ibr>);
    EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  }
}

// -- IBR: a retried first protect does not widen the reservation -------

namespace {
/// One IBR reader protects and then holds its section while the writer
/// retires a train of six objects. Each object lives two consecutive
/// eras and shares the later one with its successor, so a point
/// reservation blocks at most two of them (DESIGN.md §13). A
/// retire that lands between the reader's first publish and its
/// reverify makes the first protect retry; if the retry kept the
/// discarded attempt's lower bound, the slot would hold a two-era
/// interval and pin a third object.
void held_reader_train_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena<rcua::reclaim::Ibr>>();
  auto retired = std::make_shared<std::atomic<bool>>(false);
  sched.spawn("reader", [a, retired] {
    rcua::reclaim::Ibr::ReadGuard guard(a->dom);
    std::atomic<bool>* p = guard.protect(a->current);
    rcua::testing::sched_await("test.reader.hold",
                               [retired] { return retired->load(); });
    if (p->load(std::memory_order_seq_cst)) {
      rcua::testing::sched_violation(
          "reader dereferenced an era-reclaimed object");
    }
  });
  sched.spawn("writer", [a, retired] {
    for (std::size_t r = 1; r <= 6; ++r) {
      writer_round(*a, r);
      if (a->dom.pending_objects() > 2) {
        rcua::testing::sched_violation(
            "one held IBR reservation pinned more than two retired objects");
      }
    }
    retired->store(true);
  });
}
}  // namespace

TEST(SchedEras, IbrRetriedProtectPinsAtMostTwoDfs) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 2;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, held_reader_train_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

TEST(SchedEras, TwoReadersAcrossSlotsStaySafe) {
  // The scan snapshots every reader's slot; two concurrent readers must
  // both gate retirement.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<Arena<rcua::reclaim::Ibr>>();
        for (int r = 0; r < 2; ++r) {
          sched.spawn("reader", [a] { reader_once(*a); });
        }
        sched.spawn("writer", [a] { writer_rounds(*a, 2); });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

// -- Shared reader slot -------------------------------------------------

namespace {
/// Two readers and a one-round writer: the scenario that exposes a
/// shared reservation slot. The second reader enters after the first
/// has published and takes that reservation for an enclosing section's.
/// The first reader then leaves and restores the idle slot it found,
/// while the second still holds its object, and the writer's scan frees
/// it.
void shared_slot_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena<rcua::reclaim::Ibr>>();
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("writer", [a] { writer_rounds(*a, 1); });
}
}  // namespace

TEST(SchedEras, IbrMutationSharedReaderSlotFound) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found)
      << "two readers on one reservation slot must be caught";

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

TEST(SchedEras, IbrMutationSharedReaderSlotFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found)
      << "the lost reservation needs two preemptions; bounded DFS must "
         "reach it";
}

TEST(SchedEras, IbrNegativeControlSharedSlotScenario) {
  // Unmutated, each reader owns its slot: no schedule loses a
  // reservation.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));

  ExploreOptions dfs;
  dfs.mode = ExploreMode::kDfs;
  dfs.schedules = 200000;
  dfs.preemption_bound = 3;
  dfs.stop_on_violation = false;
  const ExploreResult exhaustive =
      rcua::testing::explore(dfs, shared_slot_scenario);
  EXPECT_FALSE(exhaustive.found) << exhaustive.message << "\n"
                                 << exhaustive.trace;
  EXPECT_TRUE(exhaustive.exhausted)
      << "expected to enumerate the full 3-preemption schedule tree, ran "
      << exhaustive.schedules_run;
}
