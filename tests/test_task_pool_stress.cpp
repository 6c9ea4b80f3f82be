// Stress tests for the tasking layer: nested parallelism, overflow
// threads, group fan-in, parking churn, and context fidelity under load.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/cluster.hpp"
#include "runtime/this_task.hpp"
#include "reclaim/qsbr.hpp"

namespace rt = rcua::rt;

TEST(TaskPoolStress, DeeplyNestedCoforalls) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  std::atomic<int> leaves{0};
  cluster.coforall_locales([&](std::uint32_t) {
    cluster.coforall_locales([&](std::uint32_t) {
      cluster.coforall_locales([&](std::uint32_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 8);
}

TEST(TaskPoolStress, ManyConcurrentGroups) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 3});
  constexpr int kGroups = 16;
  constexpr int kTasksPerGroup = 20;
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int g = 0; g < kGroups; ++g) {
    submitters.emplace_back([&, g] {
      rt::TaskPool::Group group;
      group.add(kTasksPerGroup);
      for (int i = 0; i < kTasksPerGroup; ++i) {
        cluster.pool().submit(static_cast<std::uint32_t>((g + i) % 2), &group,
                              [&] { done.fetch_add(1); });
      }
      group.wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(done.load(), kGroups * kTasksPerGroup);
}

TEST(TaskPoolStress, OverflowStormCompletes) {
  // Saturate a 1-worker pool with blocking tasks so nearly everything
  // overflows; all tasks must still complete and be counted.
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> done{0};
  rt::TaskPool::Group group;
  constexpr int kTasks = 64;
  group.add(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    cluster.pool().submit(0, &group, [&] {
      const int now = running.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
      done.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_GT(cluster.pool().overflow_tasks(), 0u);
  EXPECT_GT(peak.load(), 1);  // overflow threads genuinely ran in parallel
}

TEST(TaskPoolStress, ContextCorrectUnderChurn) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  std::atomic<int> wrong{0};
  for (int round = 0; round < 20; ++round) {
    cluster.coforall_tasks(3, [&](std::uint32_t l, std::uint32_t) {
      if (rt::this_task().cluster != &cluster ||
          rt::this_task().locale_id != l) {
        wrong.fetch_add(1);
      }
    });
  }
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TaskPoolStress, ParkUnparkChurnKeepsQsbrSafe) {
  // Pool workers park between tasks; QSBR reclamation driven from the
  // main thread must stay correct through thousands of park/unpark
  // transitions.
  static std::atomic<int> freed{0};
  freed.store(0);
  struct Counted {
    ~Counted() { freed.fetch_add(1); }
  };

  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  auto& qsbr = rcua::reclaim::Qsbr::global();
  int deferred = 0;
  for (int round = 0; round < 200; ++round) {
    // Short task burst -> workers park after each burst.
    cluster.coforall_locales([&](std::uint32_t) {
      qsbr.checkpoint();  // workers participate
    });
    qsbr.defer_delete(new Counted);
    ++deferred;
    qsbr.checkpoint();
  }
  qsbr.flush_unsafe();
  EXPECT_EQ(freed.load(), deferred);
}

TEST(TaskPoolStress, TwoClustersCoexist) {
  rt::Cluster a({.num_locales = 2, .workers_per_locale = 2});
  rt::Cluster b({.num_locales = 3, .workers_per_locale = 2});
  std::atomic<int> in_a{0}, in_b{0}, misrouted{0};
  std::thread ta([&] {
    a.coforall_tasks(2, [&](std::uint32_t, std::uint32_t) {
      if (rt::this_task().cluster != &a) misrouted.fetch_add(1);
      in_a.fetch_add(1);
    });
  });
  std::thread tb([&] {
    b.coforall_tasks(2, [&](std::uint32_t, std::uint32_t) {
      if (rt::this_task().cluster != &b) misrouted.fetch_add(1);
      in_b.fetch_add(1);
    });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(in_a.load(), 4);
  EXPECT_EQ(in_b.load(), 6);
  EXPECT_EQ(misrouted.load(), 0);
}

TEST(TaskPoolStress, RapidClusterCreateDestroy) {
  for (int i = 0; i < 10; ++i) {
    rt::Cluster cluster(
        {.num_locales = 2u + (i % 3), .workers_per_locale = 1u + (i % 2)});
    std::atomic<int> ran{0};
    cluster.coforall_locales([&](std::uint32_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), static_cast<int>(cluster.num_locales()));
  }
  SUCCEED();
}
