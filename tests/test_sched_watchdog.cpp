// Schedule-exploration tests for the watchdog's overflow retire path:
// a writer whose deadline-bounded drain times out defers the retired
// snapshot onto an overflow RetireList and later sweeps it
// (sweep_overflow), freeing entries once BOTH reader columns have been
// observed empty since the push.
//
// The `watchdog_skip_recheck` mutation regresses the flush to gating
// each entry on its own retire parity — plausible (it mirrors the
// blocking drain) but unsound once the writer runs ahead of a stalled
// reader — and the harness must find a violating schedule. The negative
// controls run the same scenario unmutated and additionally assert the
// deferred entries ARE reclaimed once every reader has left (no leak,
// no hang).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "reclaim/ebr.hpp"
#include "reclaim/retire_list.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::ScopedMutation;
using rcua::testing::Scheduler;

/// "Reclamation" is flipping a freed-flag, so a protocol bug is detected
/// as a flag read, not a real use-after-free.
struct Arena {
  rcua::reclaim::BasicEbr<std::uint64_t> ebr;
  rcua::reclaim::RetireList<rcua::reclaim::OverflowTag> overflow;
  std::atomic<std::size_t> current{0};
  std::atomic<bool> freed[8] = {};
};

void flag_free(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

void reader_once(Arena& a) {
  a.ebr.read([&] {
    const std::size_t s = a.current.load(std::memory_order_seq_cst);
    rcua::testing::sched_point("test.reader.deref");
    if (a.freed[s].load(std::memory_order_seq_cst)) {
      rcua::testing::sched_violation(
          "reader dereferenced an overflow-reclaimed snapshot");
    }
  });
}

/// Writer with the stall-tolerant retire path: publish, bump, bounded
/// drain; on timeout (or with entries already deferred) defer the old
/// snapshot and try an opportunistic two-column flush.
void writer_rounds(Arena& a, std::size_t rounds) {
  auto drained = [&](std::size_t parity) {
    return a.ebr.readers_at(parity) == 0;
  };
  for (std::size_t r = 1; r <= rounds; ++r) {
    const std::size_t old = a.current.load(std::memory_order_seq_cst);
    rcua::testing::sched_point("test.writer.publish");
    a.current.store(r, std::memory_order_seq_cst);
    const auto e = a.ebr.advance_epoch();
    // Any deadline makes the drain one scheduler poll, then give up.
    const auto drain = a.ebr.wait_for_readers(e, /*deadline_ns=*/1);
    // The direct free is only sound while nothing is deferred: a pending
    // entry means an earlier drain never completed, so a reader on the
    // other parity may hold THIS round's victim (DESIGN.md §8).
    if (drain.drained && a.overflow.pending_objects() == 0) {
      a.freed[old].store(true, std::memory_order_seq_cst);
    } else {
      a.overflow.push(&flag_free, &a.freed[old], /*bytes=*/1,
                      {static_cast<std::size_t>(e % 2)});
    }
    rcua::testing::sched_point("test.writer.flush");
    rcua::reclaim::sweep_overflow(a.overflow, drained);
  }
}

void two_round_scenario(Scheduler& sched) {
  auto a = std::make_shared<Arena>();
  sched.spawn("reader", [a] { reader_once(*a); });
  sched.spawn("writer", [a] { writer_rounds(*a, 2); });
  sched.on_finish([a](Scheduler& s) {
    // Liveness half of the watchdog contract: with every reader gone the
    // parity columns are empty, so one more flush must reclaim every
    // deferred snapshot.
    rcua::reclaim::sweep_overflow(a->overflow, [&](std::size_t parity) {
      return a->ebr.readers_at(parity) == 0;
    });
    if (!a->freed[0].load() || !a->freed[1].load()) {
      s.violation("a deferred snapshot was never reclaimed");
    }
  });
}

}  // namespace

TEST(SchedWatchdog, MutationSkipRecheckFound) {
  ScopedMutation mut(&rcua::testing::mutations().watchdog_skip_recheck);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 10000;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  ASSERT_TRUE(result.found)
      << "freeing overflowed memory without re-checking the parity column "
         "must be caught";

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

TEST(SchedWatchdog, MutationSkipRecheckFoundByDfs) {
  ScopedMutation mut(&rcua::testing::mutations().watchdog_skip_recheck);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  ASSERT_TRUE(result.found)
      << "the recheck bug needs few preemptions; bounded DFS must reach it";
}

TEST(SchedWatchdog, NegativeControlRandom) {
  // Unmutated overflow path: no schedule may free under a live reader,
  // and every deferred snapshot is reclaimed by the final flush.
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

TEST(SchedWatchdog, NegativeControlDfs) {
  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 200000;
  opts.preemption_bound = 3;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, two_round_scenario);
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}

TEST(SchedWatchdog, TwoReadersOnTheirOwnSlotsStaySafe) {
  // The flush's drained-predicate sums the parity column across reader
  // slots; two readers, each on its own slot, must both gate it.
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 2000;
  opts.stop_on_violation = false;
  const ExploreResult result =
      rcua::testing::explore(opts, [](Scheduler& sched) {
        auto a = std::make_shared<Arena>();
        for (int r = 0; r < 2; ++r) {
          sched.spawn("reader", [a] { reader_once(*a); });
        }
        sched.spawn("writer", [a] { writer_rounds(*a, 2); });
      });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}
