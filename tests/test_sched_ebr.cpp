// Schedule-exploration tests for the TLS-free EBR protocol (Algorithm 1).
//
// The mutation checks re-enable deliberately broken protocol variants and
// assert the harness *finds* a violating schedule — proving exploration has
// teeth and documenting which protocol line prevents which bug. The
// negative controls run the same scenarios unmutated and assert no
// schedule violates, including a systematic DFS pass.
//
// Snapshots are modeled as arena slots with `freed` flags (the writer
// "reclaims" by flipping a flag, never by freeing), so a protocol bug is
// detected as a flag read, not as a real use-after-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "reclaim/ebr.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::ScopedMutation;
using rcua::testing::Scheduler;

/// Shared state of the reader/writer scenarios: a "current snapshot" index
/// into an arena of freed-flags. Each task reads on its own thread's
/// reader slot; no sched site names the slot, so every printed seed
/// replays identically whatever indices the task threads take.
template <typename EpochT, typename Layout = rcua::reclaim::OwnedReaders>
struct Arena {
  explicit Arena(EpochT initial_epoch = EpochT{0}) : ebr(initial_epoch) {}

  rcua::reclaim::BasicEbr<EpochT, Layout> ebr;
  std::atomic<std::size_t> current{0};
  std::atomic<bool> freed[8] = {};
};

/// Reader: one read-side critical section that captures the current
/// snapshot and later (one schedule point on) checks it was not reclaimed
/// out from under it.
template <typename ArenaT>
void reader_once(ArenaT& a) {
  a.ebr.read([&] {
    const std::size_t s = a.current.load(std::memory_order_seq_cst);
    rcua::testing::sched_point("test.reader.deref");
    if (a.freed[s].load(std::memory_order_seq_cst)) {
      rcua::testing::sched_violation(
          "reader dereferenced a reclaimed snapshot");
    }
  });
}

/// Writer: `rounds` RCU_Write cycles — publish snapshot r, bump the epoch,
/// drain the old parity, reclaim the previous snapshot.
template <typename ArenaT>
void writer_rounds(ArenaT& a, std::size_t rounds) {
  for (std::size_t r = 1; r <= rounds; ++r) {
    const std::size_t old = a.current.load(std::memory_order_seq_cst);
    rcua::testing::sched_point("test.writer.publish");
    a.current.store(r, std::memory_order_seq_cst);
    const auto e = a.ebr.advance_epoch();
    a.ebr.wait_for_readers(e);
    a.freed[old].store(true, std::memory_order_seq_cst);
  }
}

/// The two-round scenario that exposes the skip-reverify bug: the reader
/// must announce on a stale parity (round 1 already advanced the epoch),
/// then survive into round 2, whose drain watches the *other* parity and
/// so reclaims the snapshot the reader still holds.
void two_round_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena<std::uint64_t>>();
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("writer", [a] { writer_rounds(*a, 2); });
}

TEST(SchedEbr, MutationSkipReverifyFound) {
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_reverify);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);

  ASSERT_TRUE(result.found)
      << "dropping the line-13 re-verification must be caught";
  EXPECT_LE(result.schedules_run, 10000u);

  // The printed seed replays the violating schedule deterministically.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again =
      rcua::testing::explore(replay, two_round_scenario);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.schedules_run, 1u);
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedEbr, MutationSkipReverifyFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_reverify);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 10000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  ASSERT_TRUE(result.found)
      << "the bug needs only 3 preemptions; bounded DFS must reach it";
}

TEST(SchedEbr, MutationSkipDrainFound) {
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_drain);

  // One round suffices: reclaiming without draining frees the snapshot a
  // correctly-announced reader is still inside.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<Arena<std::uint64_t>>();
        sched.spawn("reader", [a] { reader_once(*a); });
        sched.spawn("writer", [a] { writer_rounds(*a, 1); });
      });
  ASSERT_TRUE(result.found)
      << "reclaiming without draining lines 6-7 must be caught";
}

TEST(SchedEbr, MutationSkipFenceFound) {
  // Owned layout only: dropping the writer-side seq_cst fence after the
  // epoch bump lets the drain's first column scan be satisfied by values
  // read before the bump (StoreLoad hoist). Emulated under the SC
  // scheduler by the pre-bump hoisted scan in advance_epoch. The failing
  // schedule: the writer's hoisted scan sees an empty column, a reader
  // then announces+verifies against the pre-bump epoch, round 1 skips its
  // drain on the cached zero, and round 2 reclaims the snapshot the
  // still-running reader captured.
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_fence);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  ASSERT_TRUE(result.found)
      << "dropping the post-bump fence must be caught";

  // The printed seed replays the violating schedule deterministically.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again =
      rcua::testing::explore(replay, two_round_scenario);
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedEbr, MutationSkipFenceFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_fence);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  ASSERT_TRUE(result.found)
      << "the fence bug needs ~2 preemptions; bounded DFS must reach it";
}

TEST(SchedEbr, SkipFenceIsVacuousOnLegacyLayout) {
  // The fence is an obligation the *owned* layout introduced: the
  // legacy all-seq_cst layout never elides the StoreLoad edge, so the
  // same mutation must find nothing there.
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_fence);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<
            Arena<std::uint64_t, rcua::reclaim::LegacyReaders>>();
        sched.spawn("reader", [a] { reader_once(*a); });
        sched.spawn("writer", [a] { writer_rounds(*a, 2); });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

TEST(SchedEbr, NegativeControlRandom) {
  // Unmutated protocol: no schedule of the same scenario may violate.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedEbr, NegativeControlDfsExhaustive) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_TRUE(result.exhausted)
      << "expected to enumerate the full 3-preemption schedule tree, ran "
      << result.schedules_run;
}

TEST(SchedEbr, NegativeControlThreeReaders) {
  // The unmutated protocol stays safe when three readers each count on
  // their own slot and the drain must sum the column across the bank.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<Arena<std::uint64_t>>();
        for (int r = 0; r < 3; ++r) {
          sched.spawn("reader", [a] { reader_once(*a); });
        }
        sched.spawn("writer", [a] { writer_rounds(*a, 2); });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

/// Two readers and a one-round writer: the scenario that exposes a
/// shared reader slot. Both readers load the slot's count before either
/// exchanges, so one increment is lost; the first retract then empties
/// the slot under the second reader, and the writer's drain reclaims the
/// snapshot that reader still holds.
void shared_slot_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena<std::uint64_t>>();
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("writer", [a] { writer_rounds(*a, 1); });
}

TEST(SchedEbr, MutationSharedReaderSlotFound) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found)
      << "two owners of one slot lose an increment; that must be caught";

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

TEST(SchedEbr, MutationSharedReaderSlotFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().shared_reader_slot);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  ASSERT_TRUE(result.found)
      << "the lost count needs 3 preemptions; bounded DFS must reach it";
}

TEST(SchedEbr, NegativeControlSharedSlotScenario) {
  // Unmutated, each reader owns its slot: no schedule loses a count.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, shared_slot_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;

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

// Lemma 2: epoch parity (and with it reader/writer pairing) survives
// integer overflow of the epoch counter. Drive a uint8 epoch across
// wrap-around under full schedule exploration and assert the unmutated
// protocol never reclaims a snapshot a reader still holds.
TEST(SchedEbr, Lemma2EpochWrapAroundSafe) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 1500;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        // Start at 254 so the writer's six rounds step the epoch
        // 254 -> 255 -> 0 -> 1 -> 2 -> 3 -> 4, crossing the wrap.
        auto a = std::make_shared<Arena<std::uint8_t>>(std::uint8_t{254});
        sched.spawn("reader", [a] {
          for (int i = 0; i < 3; ++i) reader_once(*a);
        });
        sched.spawn("writer", [a] { writer_rounds(*a, 6); });
        sched.on_finish([a](Scheduler& s) {
          if (a->ebr.epoch() != std::uint8_t{4}) {
            s.violation("epoch did not advance monotonically across wrap");
          }
        });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

TEST(SchedEbr, Lemma2WrapAroundStillCatchesMutant) {
  // Sanity: the wrap-around scenario is not vacuously safe — the
  // skip-drain mutant is still caught across the wrap boundary.
  ScopedMutation mut(&rcua::testing::mutations().ebr_skip_drain);
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<Arena<std::uint8_t>>(std::uint8_t{255});
        sched.spawn("reader", [a] { reader_once(*a); });
        sched.spawn("writer", [a] { writer_rounds(*a, 2); });
      });
  ASSERT_TRUE(result.found);
}

}  // namespace
