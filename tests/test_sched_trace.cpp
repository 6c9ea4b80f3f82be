// Trace determinism under the schedule-exploration harness (DESIGN.md
// §12): with RCUA_SCHED_SEED pinning one schedule, two runs of the same
// scenario must record IDENTICAL trace event sequences — same names,
// phases, deterministic task ids, and the same *virtual-time*
// timestamps. This is the property that makes a trace of a sched-tier
// repro shippable: the timeline in Perfetto is the schedule, not an
// artifact of host jitter.
//
// The scenario attaches a sim::TaskClock to each logical task (the
// determinism rule covers virtual timestamps; wall clocks are exempt by
// design) and drives remote traffic through AsyncComm, whose
// comm.get/comm.put/comm.async.issue/comm.async.complete events carry
// schedule-dependent interleavings — precisely what must replay.
//
// The replay itself must hold under the nightly tier's environment
// overrides: a test that re-runs a printed seed explores exactly that
// seed, whatever RCUA_SCHED_BASE_SEED and RCUA_SCHED_SCHEDULES say.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/cluster.hpp"
#include "runtime/comm.hpp"
#include "scoped_env.hpp"
#include "sim/task_clock.hpp"
#include "testing/scheduler.hpp"

namespace {

using rcua::testing::ExploreMode;
using rcua::testing::ExploreOptions;
using rcua::testing::ExploreResult;
using rcua::testing::Scheduler;

namespace sim = rcua::sim;

/// (tid, name, phase, virtual ts, arg) — the full identity of one
/// event as far as determinism is concerned.
using EventKey =
    std::tuple<std::uint32_t, std::string, char, std::uint64_t,
               std::uint64_t>;

/// Each task runs under its own virtual clock and issues a small
/// pipelined burst of remote ops; the sched points inside AsyncComm
/// make the interleaving schedule-dependent.
void traffic_task(const std::shared_ptr<rcua::rt::Cluster>& cluster,
                  std::uint64_t salt) {
  sim::TaskClock clock;
  sim::ClockScope scope(clock);
  static std::uint64_t sink[4] = {};
  rcua::rt::AsyncComm session(cluster->comm(), /*here=*/0,
                              {.window = 2});
  for (std::uint64_t i = 0; i < 4; ++i) {
    session.put(1u, &sink[i], salt + i).wait();
    (void)session.get(1u, &sink[i]).get();
  }
  session.drain();
}

void traffic_scenario(const std::shared_ptr<rcua::rt::Cluster>& cluster,
                      Scheduler& sched) {
  sched.spawn("alpha", [cluster] { traffic_task(cluster, 100); });
  sched.spawn("beta", [cluster] { traffic_task(cluster, 200); });
}

/// One pinned-seed exploration run, returning the recorded events in
/// snapshot order grouped by deterministic task id.
std::vector<EventKey> run_once(
    const std::shared_ptr<rcua::rt::Cluster>& cluster) {
  rcua::obs::trace_reset();
  rcua::obs::set_trace_enabled(true);
  ExploreOptions opts;
  opts.mode = ExploreMode::kRandom;
  opts.schedules = 1;
  opts.quiet = true;
  const auto result = rcua::testing::explore(
      opts,
      [&cluster](Scheduler& s) { traffic_scenario(cluster, s); });
  rcua::obs::set_trace_enabled(false);
  EXPECT_FALSE(result.found) << result.message;

  std::vector<EventKey> keys;
  for (const auto& e : rcua::obs::trace_snapshot()) {
    keys.emplace_back(e.tid, e.name != nullptr ? e.name : "?", e.phase,
                      e.ts_ns, e.arg);
  }
  // Group by deterministic task id, preserving per-task recording
  // order (rings are per OS thread; the sched task id in each event is
  // the replay-stable identity).
  std::stable_sort(keys.begin(), keys.end(),
                   [](const EventKey& a, const EventKey& b) {
                     return std::get<0>(a) < std::get<0>(b);
                   });
  return keys;
}

TEST(SchedTrace, SameSeedProducesIdenticalVirtualTimeTraces) {
  // Pin exactly one schedule the way a human replaying a repro would.
  ASSERT_EQ(setenv("RCUA_SCHED_SEED", "20260808", 1), 0);

  auto cluster = std::make_shared<rcua::rt::Cluster>(
      rcua::rt::ClusterConfig{.num_locales = 2, .workers_per_locale = 1});

  const std::vector<EventKey> first = run_once(cluster);
  cluster->comm().reset();
  const std::vector<EventKey> second = run_once(cluster);
  unsetenv("RCUA_SCHED_SEED");

  ASSERT_FALSE(first.empty())
      << "the scenario must actually record trace events";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i])
        << "event " << i << " diverged: [" << std::get<1>(first[i]) << " ph="
        << std::get<2>(first[i]) << " tid=" << std::get<0>(first[i])
        << " ts=" << std::get<3>(first[i]) << "] vs ["
        << std::get<1>(second[i]) << " ph=" << std::get<2>(second[i])
        << " tid=" << std::get<0>(second[i])
        << " ts=" << std::get<3>(second[i]) << "]";
  }

  // Different seed: the schedule (and thus the interleaving-dependent
  // event sequence) is allowed to differ — determinism is per seed,
  // not global. Just prove a run with another seed still records.
  ASSERT_EQ(setenv("RCUA_SCHED_SEED", "1", 1), 0);
  cluster->comm().reset();
  const std::vector<EventKey> other = run_once(cluster);
  unsetenv("RCUA_SCHED_SEED");
  EXPECT_EQ(other.size(), first.size())
      << "same scenario, same op count — only order/timing may move";
  rcua::obs::trace_reset();
}

using rcua::test::ScopedEnv;

/// Violates on every schedule, so a result's seed is the first it ran.
void always_violates(Scheduler& sched) {
  sched.spawn("t", [] {
    rcua::testing::sched_point("test.before_violation");
    rcua::testing::sched_violation("always");
  });
}

TEST(SchedReplay, ExplicitReplayIgnoresNightlyBudgetAndBaseSeed) {
  const ScopedEnv no_seed("RCUA_SCHED_SEED", std::nullopt);
  const ScopedEnv base("RCUA_SCHED_BASE_SEED", "12345");
  const ScopedEnv budget("RCUA_SCHED_SCHEDULES", "20000");

  // An exploration still takes both overrides.
  ExploreOptions sweep;
  sweep.mode = ExploreMode::kRandom;
  sweep.schedules = 10;
  sweep.quiet = true;
  EXPECT_EQ(rcua::testing::effective_schedule_budget(sweep), 20000u);
  const ExploreResult first = rcua::testing::explore(sweep, always_violates);
  ASSERT_TRUE(first.found);
  EXPECT_EQ(first.seed, 12345u);

  // A replay of another seed runs that seed alone.
  ExploreOptions replay;
  replay.mode = ExploreMode::kRandom;
  replay.schedules = 1;
  replay.base_seed = 777;
  replay.quiet = true;
  EXPECT_EQ(rcua::testing::effective_schedule_budget(replay), 1u);
  const ExploreResult again = rcua::testing::explore(replay, always_violates);
  ASSERT_TRUE(again.found);
  EXPECT_EQ(again.seed, 777u);
  EXPECT_EQ(again.schedules_run, 1u);
}

}  // namespace
