// Schedule-exploration tests for live shard migration
// (RCUArray::rehome, DESIGN.md §14).
//
// Two protocol lines are under test, each with its own mutation:
//
//  * copy-before-publish: the replacement spine may only become visible
//    once every pipelined block-copy completion has drained
//    (`migrate_publish_before_copy_complete` breaks it) — otherwise a
//    reader routed to a replacement block reads a value the array never
//    stored;
//  * migrate -> invalidate -> drain: the replaced source blocks may only
//    be freed after every reader of the old block mapping drained
//    (`migrate_reclaim_before_mapping_drain` breaks it) — otherwise a
//    section that pinned the old spine holds pointers into freed blocks.
//
// Detection never touches reclaimed memory: the reader tells the old
// spine from the replacement by the block's data pointer (recorded
// before the migration through a Lemma 6 stable reference), and a
// premature free shows up as a drop in the source locale's byte ledger
// — checked BEFORE the data would be dereferenced. Replacement blocks
// are zero-initialized at allocation, so a pre-copy read is a
// deterministic wrong value, not uninitialized garbage.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/rcu_array.hpp"
#include "runtime/cluster.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::EbrPolicy;
using rcua::RCUArray;
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

struct State {
  // Cache pinned OFF: this suite proves the migration mutations are
  // findable through the plain read path; a cache-enabled read could
  // serve the block from a local copy instead of the pinned spine under
  // test. home_locale pins the block to locale 0 so rehome(1) moves it.
  explicit State(rcua::rt::Cluster& c)
      : cluster(c), arr(c, 0,
                        {.block_size = kBlock,
                         .cache_capacity_bytes = 0,
                         .home_locale = 0}) {}

  rcua::rt::Cluster& cluster;
  RCUArray<int, EbrPolicy> arr;
  std::atomic<bool> ready{false};
  /// Data pointer of the source block, via a pre-migration reference —
  /// how the reader tells "pinned the old spine" from "pinned the
  /// replacement spine" without consulting racy metadata.
  std::atomic<int*> old_data{nullptr};
  /// Locale 0's live bytes once the source block exists: the ledger
  /// drops below this exactly when the source block is freed.
  std::atomic<std::uint64_t> fill_bytes{0};
  /// Snapshot version the fill ran under (the pre-migration spine);
  /// rehome's successor spine carries fill_version + 1.
  std::uint64_t fill_version = 0;
  std::atomic<bool> migrated{false};
  std::atomic<std::size_t> visited{0};
};

/// Writer: materialize one block homed on locale 0, fill it, signal the
/// reader, then live-migrate the array to locale 1.
void writer_task(const std::shared_ptr<State>& st) {
  st->arr.resize_add(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    st->arr.write(i, static_cast<int>(i) + 7);
  }
  st->old_data.store(&st->arr.index(0), std::memory_order_seq_cst);
  st->fill_bytes.store(st->cluster.locale(0).bytes_live(),
                       std::memory_order_seq_cst);
  st->fill_version = st->arr.view().version();
  st->ready.store(true, std::memory_order_seq_cst);
  if (!st->arr.rehome(1)) {
    rcua::testing::sched_violation("rehome rolled back without a fault");
    return;
  }
  st->migrated.store(true, std::memory_order_seq_cst);
}

/// Reader: one pinned section over the block's range, concurrent with
/// the migration. The version pinned by the View says which spine this
/// section holds: the pre-migration spine (the fill's version) or the
/// replacement. Each branch checks its own protocol line, and neither
/// ever dereferences memory a premature free could have reclaimed — the
/// old-spine branch reads through the raw pointer recorded before the
/// migration (no Block metadata), gated by the ledger check.
void reader_task(const std::shared_ptr<State>& st) {
  rcua::testing::sched_await("test.wait_ready", [st] {
    return st->ready.load(std::memory_order_seq_cst);
  });
  auto view = st->arr.view();
  const std::uint64_t pinned = view.version();
  // The yield the mutations need: the whole publish (and, mutated, the
  // premature free) can land between this section's pin and its reads.
  rcua::testing::sched_point("test.reader.pinned");
  if (pinned == st->fill_version) {
    // Pinned the OLD spine: this section is exactly what the §14 drain
    // must wait out, so the source block must still be live — its free
    // would drop locale 0's byte ledger. No yields below the check, so
    // the free cannot slip between the check and the reads.
    if (st->cluster.locale(0).bytes_live() <
        st->fill_bytes.load(std::memory_order_seq_cst)) {
      rcua::testing::sched_violation(
          "source blocks freed before the old mapping's readers drained");
      return;  // do NOT touch the data: the block is really freed
    }
    const int* data = st->old_data.load(std::memory_order_seq_cst);
    for (std::size_t k = 0; k < kBlock; ++k) {
      if (data[k] != static_cast<int>(k) + 7) {
        rcua::testing::sched_violation(
            "migration disturbed the source block's values");
        return;
      }
    }
  } else {
    // Pinned the REPLACEMENT spine: copy-before-publish means every
    // copied value is in place. A zero is the replacement block's
    // allocation fill — the spine was published before its copy landed.
    for (std::size_t k = 0; k < kBlock; ++k) {
      if (view[k] != static_cast<int>(k) + 7) {
        rcua::testing::sched_violation(
            "migration exposed a value the array never stored "
            "(replacement spine published before its copy drained)");
        return;
      }
    }
  }
  st->visited.fetch_add(kBlock, std::memory_order_seq_cst);
}

void migration_scenario(rcua::rt::Cluster& cluster, Scheduler& sched) {
  auto st = std::make_shared<State>(cluster);
  sched.spawn("reader", [st] { reader_task(st); });
  sched.spawn("writer", [st] { writer_task(st); });
  sched.on_finish([st](Scheduler& s) {
    if (s.violated()) return;
    // Completeness: the one block must have been visited exactly once,
    // and the migration must have completed (no spurious rollback).
    if (st->visited.load() != kBlock) {
      s.violation("migration lost or duplicated the block's elements");
    }
    if (!st->migrated.load()) {
      s.violation("rehome did not complete");
    }
  });
}

}  // namespace

TEST(SchedMigration, MutationPublishBeforeCopyCompleteFound) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(
      &rcua::testing::mutations().migrate_publish_before_copy_complete);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 4000;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "publishing the replacement spine before the pipelined copies "
         "drained must be caught";

  // The printed seed replays the violating schedule deterministically.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again = rcua::testing::explore(
      replay, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedMigration, MutationPublishBeforeCopyCompleteFoundByDfs) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(
      &rcua::testing::mutations().migrate_publish_before_copy_complete);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 20000;
  opts.preemption_bound = 2;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "the publish->reader-pin->copy-drain window needs two "
         "preemptions; bounded DFS must reach it (ran "
      << result.schedules_run << " schedules)";
}

TEST(SchedMigration, MutationReclaimBeforeMappingDrainFound) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(
      &rcua::testing::mutations().migrate_reclaim_before_mapping_drain);

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 4000;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "freeing the replaced source blocks before the old mapping's "
         "readers drained must be caught";

  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = result.seed;
  replay.quiet = true;
  const ExploreResult again = rcua::testing::explore(
      replay, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(again.found) << "seed " << result.seed << " did not replay";
  EXPECT_EQ(again.message, result.message);
}

TEST(SchedMigration, MutationReclaimBeforeMappingDrainFoundByDfs) {
  rcua::rt::Cluster cluster(small_cluster());
  ScopedMutation mut(
      &rcua::testing::mutations().migrate_reclaim_before_mapping_drain);

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 20000;
  opts.preemption_bound = 2;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  ASSERT_TRUE(result.found)
      << "the pin->publish->free window needs two preemptions; bounded "
         "DFS must reach it (ran "
      << result.schedules_run << " schedules)";
}

TEST(SchedMigration, NegativeControlRandom) {
  // Unmutated: copies drain before the publish and the source blocks
  // outlive every old-mapping reader, so no schedule may observe a
  // never-stored value, a premature free, or a lost element.
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 400;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
  EXPECT_EQ(result.schedules_run,
            rcua::testing::effective_schedule_budget(opts));
}

TEST(SchedMigration, NegativeControlDfs) {
  rcua::rt::Cluster cluster(small_cluster());

  ExploreOptions opts;
  opts.mode = ExploreMode::kDfs;
  opts.schedules = 2000;
  opts.preemption_bound = 1;
  opts.stop_on_violation = false;
  const ExploreResult result = rcua::testing::explore(
      opts, [&cluster](Scheduler& s) { migration_scenario(cluster, s); });
  EXPECT_FALSE(result.found) << result.message << "\n" << result.trace;
}
