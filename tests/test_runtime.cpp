// Tests for the cluster runtime: task context, comm counters, on/coforall
// semantics, the task pool (including overflow threads and parking).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reclaim/qsbr.hpp"
#include "runtime/cluster.hpp"
#include "runtime/this_task.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace rt = rcua::rt;
namespace sim = rcua::sim;

TEST(ThisTask, DefaultContextIsLocaleZeroNoCluster) {
  const rt::TaskContext& ctx = rt::this_task();
  EXPECT_EQ(ctx.cluster, nullptr);
  EXPECT_EQ(ctx.locale_id, 0u);
}

TEST(ThisTask, LocaleScopeSetsAndRestores) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  {
    rt::LocaleScope scope(cluster, 1, 7);
    EXPECT_EQ(rt::this_task().cluster, &cluster);
    EXPECT_EQ(rt::this_task().locale_id, 1u);
    EXPECT_EQ(rt::this_task().worker_id, 7u);
    EXPECT_EQ(cluster.here(), 1u);
  }
  EXPECT_EQ(rt::this_task().cluster, nullptr);
  EXPECT_EQ(cluster.here(), 0u);
}

TEST(Cluster, RejectsZeroLocales) {
  EXPECT_THROW(rt::Cluster({.num_locales = 0, .workers_per_locale = 2}),
               std::invalid_argument);
}

TEST(Cluster, RejectsZeroWorkersPerLocale) {
  EXPECT_THROW(rt::Cluster({.num_locales = 2, .workers_per_locale = 0}),
               std::invalid_argument);
}

TEST(Cluster, ValidationErrorNamesTheField) {
  try {
    rt::Cluster cluster({.num_locales = 0, .workers_per_locale = 1});
    FAIL() << "num_locales == 0 must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_locales"), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, ConstructionExposesConfiguredShape) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  EXPECT_EQ(cluster.num_locales(), 3u);
  EXPECT_EQ(cluster.pool().num_locales(), 3u);
  EXPECT_EQ(cluster.pool().workers_per_locale(), 2u);
  EXPECT_EQ(cluster.locale(2).id(), 2u);
  EXPECT_EQ(cluster.comm().num_locales(), 3u);
}

TEST(Cluster, OnRunsWithTargetLocaleContext) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  std::uint32_t observed = ~0u;
  cluster.on(2, [&] { observed = cluster.here(); });
  EXPECT_EQ(observed, 2u);
}

TEST(Cluster, OnSameLocaleRunsInline) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rt::LocaleScope scope(cluster, 1);
  const auto tid = std::this_thread::get_id();
  std::thread::id observed;
  cluster.on(1, [&] { observed = std::this_thread::get_id(); });
  EXPECT_EQ(observed, tid);
  EXPECT_EQ(cluster.comm().total_executes(), 0u);
}

TEST(Cluster, OnRemoteCountsExecute) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  cluster.on(1, [] {});
  EXPECT_EQ(cluster.comm().executes(0), 1u);
}

TEST(Cluster, CoforallLocalesVisitsEveryLocaleOnce) {
  rt::Cluster cluster({.num_locales = 5, .workers_per_locale = 1});
  std::vector<std::atomic<int>> visits(5);
  cluster.coforall_locales([&](std::uint32_t l) {
    EXPECT_EQ(cluster.here(), l);
    visits[l].fetch_add(1);
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(Cluster, CoforallTasksRunsFullTeam) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 4});
  std::atomic<int> count{0};
  std::mutex mu;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  cluster.coforall_tasks(4, [&](std::uint32_t l, std::uint32_t t) {
    count.fetch_add(1);
    std::lock_guard<std::mutex> guard(mu);
    seen.insert({l, t});
  });
  EXPECT_EQ(count.load(), 12);
  EXPECT_EQ(seen.size(), 12u);
}

TEST(Cluster, NestedCoforallDoesNotDeadlock) {
  // A coforall body that itself coforalls (the resize-inside-workload
  // shape) must complete even with a single worker per locale, via the
  // pool's overflow threads.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  std::atomic<int> inner{0};
  cluster.coforall_locales([&](std::uint32_t) {
    cluster.coforall_locales([&](std::uint32_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 4);
  EXPECT_GT(cluster.pool().overflow_tasks(), 0u);
}

TEST(Cluster, CoforallChargesInitiatorWithLongestBody) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.task_spawn_ns = 100;
  m.remote_execute_ns = 1000;
  m.async_issue_ns = 500;

  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    cluster.coforall_locales([&](std::uint32_t l) {
      sim::charge(l == 2 ? 5000.0 : 10.0);  // one slow body
    });
  }
  // 4 spawns + 3 pipelined launch issues (initiator is locale 0; each
  // remote launch charges only the 500ns issue carve-out) + the longest
  // branch including its launch-latency remainder (500 + 5000 on the
  // slow remote body — the remainders overlap instead of summing).
  EXPECT_EQ(clock.vtime_ns, 4 * 100u + 3 * 500u + (500u + 5000u));
}

TEST(Cluster, OnChargesBodyToInitiator) {
  sim::CostModelOverride save;
  auto& m = sim::CostModel::mutable_instance();
  m.remote_execute_ns = 1000;

  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    cluster.on(1, [] { sim::charge(777); });
  }
  EXPECT_EQ(clock.vtime_ns, 1000u + 777u);
}

TEST(CommLayer, LocalAccessIsNotCommunication) {
  rt::CommLayer comm(2);
  comm.record_access(0, 0, false);
  comm.record_access(1, 1, true);
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_puts(), 0u);
}

TEST(CommLayer, RemoteAccessCountsBySource) {
  rt::CommLayer comm(3);
  comm.record_access(0, 1, false);
  comm.record_access(0, 2, false);
  comm.record_access(1, 0, true);
  EXPECT_EQ(comm.gets(0), 2u);
  EXPECT_EQ(comm.puts(1), 1u);
  EXPECT_EQ(comm.total_gets(), 2u);
  EXPECT_EQ(comm.total_puts(), 1u);
}

TEST(CommLayer, ResetClears) {
  rt::CommLayer comm(2);
  comm.record_access(0, 1, false);
  comm.record_execute(0, 1);
  comm.reset();
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_executes(), 0u);
}

TEST(TaskPool, GroupWaitsForAll) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 4});
  rt::TaskPool::Group group;
  std::atomic<int> done{0};
  group.add(8);
  for (int i = 0; i < 8; ++i) {
    cluster.pool().submit(0, &group, [&] {
      std::this_thread::yield();
      done.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(TaskPool, ManyMoreTasksThanWorkersCompletes) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  std::atomic<int> done{0};
  rt::TaskPool::Group group;
  group.add(200);
  for (int i = 0; i < 200; ++i) {
    cluster.pool().submit(i % 2, &group, [&] { done.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 200);
}

TEST(TaskPool, WorkerContextMatchesLocale) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  std::atomic<bool> ok{true};
  rt::TaskPool::Group group;
  group.add(3);
  for (std::uint32_t l = 0; l < 3; ++l) {
    cluster.pool().submit(l, &group, [&, l] {
      if (rt::this_task().cluster != &cluster ||
          rt::this_task().locale_id != l) {
        ok.store(false);
      }
    });
  }
  group.wait();
  EXPECT_TRUE(ok.load());
}

// Idle workers park in Qsbr::global(): once the pool's workers have joined
// the domain and gone idle, none of them gates it, so the main thread's
// checkpoints reclaim a deferral made after every worker last observed.
TEST(TaskPool, IdleWorkersParkInGlobalQsbr) {
  rcua::reclaim::Qsbr& qsbr = rcua::reclaim::Qsbr::global();
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  // Once every worker waits for work, the tasks below queue to them
  // instead of running on overflow threads.
  while ((cluster.pool().idle_workers(0) < 2 ||
          cluster.pool().idle_workers(1) < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // All four tasks run at once, so each joins on its own worker.
  std::atomic<int> started{0};
  std::atomic<int> on_workers{0};
  cluster.coforall_tasks(2, [&](std::uint32_t, std::uint32_t) {
    qsbr.ensure_participant();
    if (rt::this_task().worker_id != ~0u) on_workers.fetch_add(1);
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(on_workers.load(), 4);

  static std::atomic<bool> freed;
  freed.store(false);
  qsbr.defer_fn([](void*) { freed.store(true); }, nullptr);
  while (!freed.load() && std::chrono::steady_clock::now() < deadline) {
    qsbr.checkpoint();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(freed.load()) << "an idle worker still gates Qsbr::global()";
}

TEST(Locale, AllocationAccounting) {
  rt::Locale loc(3);
  loc.note_alloc(128);
  loc.note_alloc(64);
  EXPECT_EQ(loc.allocations(), 2u);
  EXPECT_EQ(loc.bytes_live(), 192u);
  loc.note_free(64);
  EXPECT_EQ(loc.frees(), 1u);
  EXPECT_EQ(loc.bytes_live(), 128u);
}
