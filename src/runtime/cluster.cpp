#include "runtime/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/fault_plan.hpp"
#include "runtime/this_task.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua::rt {

namespace {
/// Rejects degenerate configs before any member construction: a
/// zero-locale or zero-worker cluster would deadlock the first coforall
/// instead of failing with a diagnosable error.
const ClusterConfig& validated(const ClusterConfig& config) {
  if (config.num_locales == 0) {
    throw std::invalid_argument(
        "ClusterConfig: num_locales == 0 (a cluster needs at least one "
        "locale)");
  }
  if (config.workers_per_locale == 0) {
    throw std::invalid_argument(
        "ClusterConfig: workers_per_locale == 0 (each locale needs at "
        "least one worker)");
  }
  return config;
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : comm_(validated(config).num_locales) {
  locales_.reserve(config.num_locales);
  for (std::uint32_t l = 0; l < config.num_locales; ++l) {
    locales_.push_back(std::make_unique<Locale>(l));
  }
  pool_ = std::make_unique<TaskPool>(*this, config.num_locales,
                                     config.workers_per_locale);
}

void Cluster::set_fault_plan(FaultPlan* plan) noexcept {
  fault_plan_.store(plan, std::memory_order_release);
  comm_.set_fault_plan(plan);
}

void Cluster::on(std::uint32_t locale, const std::function<void()>& fn) {
  const TaskContext& ctx = this_task();
  if (ctx.cluster == this && ctx.locale_id == locale) {
    fn();  // Chapel: `on here` runs in place.
    return;
  }
  comm_.record_execute(here(), locale);
#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  // Under the deterministic scheduler the TaskPool's worker threads are
  // invisible scheduling units; run the body as a child scheduler task so
  // interleavings with it are explored (and so the pool can't deadlock
  // against paused tasks).
  if (testing::sched_task_active()) {
    testing::sched_fork_join(1, [&](std::size_t) {
      LocaleScope scope(*this, locale);
      fn();
    });
    return;
  }
#endif
  const bool simulated = sim::enabled();
  sim::TaskClock body_clock;
  TaskPool::Group group;
  group.add(1);
  pool_->submit(locale, &group, [&] {
    if (simulated) {
      sim::ClockScope scope(body_clock);
      fn();
    } else {
      fn();
    }
  });
  group.wait();
  if (simulated) sim::charge(static_cast<double>(body_clock.vtime_ns));
}

void Cluster::coforall_locales(const std::function<void(std::uint32_t)>& fn) {
  const std::uint32_t n = num_locales();
  const std::uint32_t src = here();
  const bool simulated = sim::enabled();
  const auto& m = sim::CostModel::get();

#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  if (testing::sched_task_active()) {
    for (std::uint32_t l = 0; l < n; ++l) comm_.record_execute(src, l);
    testing::sched_fork_join(n, [&](std::size_t l) {
      LocaleScope scope(*this, static_cast<std::uint32_t>(l));
      fn(static_cast<std::uint32_t>(l));
    });
    return;
  }
#endif

  std::vector<sim::TaskClock> clocks(simulated ? n : 0);
  // Pipelined fan-out: each remote launch charges only the CPU-side
  // issue carve-out at the initiator; the launch latency remainder
  // (remote_execute_ns - issue, plus any kSlowRemote delay) overlaps
  // across branches and delays each branch's start, so the join below
  // folds it into the longest-branch term instead of summing it.
  std::vector<std::uint64_t> launch_tail(n, 0);
  TaskPool::Group group;
  group.add(n);
  for (std::uint32_t l = 0; l < n; ++l) {
    sim::charge(m.task_spawn_ns);
    launch_tail[l] = comm_.issue_execute(src, l);
    pool_->submit(l, &group, [&, l] {
      if (simulated) {
        sim::ClockScope scope(clocks[l]);
        fn(l);
      } else {
        fn(l);
      }
    });
  }
  group.wait();
  if (simulated) {
    std::uint64_t longest = 0;
    for (std::uint32_t l = 0; l < n; ++l) {
      longest = std::max(longest, launch_tail[l] + clocks[l].vtime_ns);
    }
    sim::charge(static_cast<double>(longest));
  }
}

void Cluster::coforall_tasks(
    std::uint32_t tasks_per_locale,
    const std::function<void(std::uint32_t, std::uint32_t)>& fn) {
  const std::uint32_t n = num_locales();
  const std::uint32_t src = here();
  const bool simulated = sim::enabled();
  const auto& m = sim::CostModel::get();
  const std::size_t total =
      static_cast<std::size_t>(n) * tasks_per_locale;

#if defined(RCUA_SCHED_TEST) && RCUA_SCHED_TEST
  if (testing::sched_task_active()) {
    for (std::uint32_t l = 0; l < n; ++l) comm_.record_execute(src, l);
    testing::sched_fork_join(total, [&](std::size_t slot) {
      const auto l = static_cast<std::uint32_t>(slot / tasks_per_locale);
      const auto t = static_cast<std::uint32_t>(slot % tasks_per_locale);
      LocaleScope scope(*this, l);
      fn(l, t);
    });
    return;
  }
#endif

  std::vector<sim::TaskClock> clocks(simulated ? total : 0);
  TaskPool::Group group;
  group.add(total);
  // Fan-out model: one pipelined remote launch per locale (the initiator
  // pays only the issue carve-out each; the launch remainders overlap),
  // then each locale spawns its own team in parallel — so the initiator
  // pays one locale's worth of task-spawn cost, not the sum.
  std::vector<std::uint64_t> launch_tail(n, 0);
  sim::charge(m.task_spawn_ns * tasks_per_locale);
  for (std::uint32_t l = 0; l < n; ++l) {
    launch_tail[l] = comm_.issue_execute(src, l);
    for (std::uint32_t t = 0; t < tasks_per_locale; ++t) {
      const std::size_t slot = static_cast<std::size_t>(l) * tasks_per_locale + t;
      pool_->submit(l, &group, [&, l, t, slot] {
        if (simulated) {
          sim::ClockScope scope(clocks[slot]);
          fn(l, t);
        } else {
          fn(l, t);
        }
      });
    }
  }
  group.wait();
  if (simulated) {
    std::uint64_t longest = 0;
    for (std::size_t slot = 0; slot < total; ++slot) {
      const auto l = static_cast<std::uint32_t>(slot / tasks_per_locale);
      longest = std::max(longest, launch_tail[l] + clocks[slot].vtime_ns);
    }
    sim::charge(static_cast<double>(longest));
  }
}

}  // namespace rcua::rt
