// Tests for the cluster collectives.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "runtime/collectives.hpp"
#include "runtime/this_task.hpp"

namespace rt = rcua::rt;

TEST(Collectives, BarrierRunsOnEveryLocale) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  rt::cluster_barrier(cluster);  // must terminate
  SUCCEED();
}

TEST(Collectives, AllreduceSums) {
  rt::Cluster cluster({.num_locales = 5, .workers_per_locale = 1});
  const int total = rt::allreduce<int>(
      cluster, [](std::uint32_t l) { return static_cast<int>(l) + 1; }, 0,
      [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 1 + 2 + 3 + 4 + 5);
}

TEST(Collectives, AllreduceMax) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  const int max = rt::allreduce<int>(
      cluster, [](std::uint32_t l) { return static_cast<int>(l * 7); }, -1,
      [](int a, int b) { return a > b ? a : b; });
  EXPECT_EQ(max, 21);
}

TEST(Collectives, AllreduceRunsOnEachLocale) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 1});
  std::atomic<int> misplaced{0};
  rt::allreduce<int>(
      cluster,
      [&](std::uint32_t l) {
        if (rt::this_task().locale_id != l) misplaced.fetch_add(1);
        return 0;
      },
      0, [](int a, int b) { return a + b; });
  EXPECT_EQ(misplaced.load(), 0);
}

TEST(Collectives, GatherIndexesByLocale) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  const auto out = rt::gather<std::string>(cluster, [](std::uint32_t l) {
    return "locale-" + std::to_string(l);
  });
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "locale-0");
  EXPECT_EQ(out[3], "locale-3");
}

TEST(Collectives, BroadcastDeliversEverywhere) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  std::atomic<int> received{0};
  rt::broadcast<int>(cluster, 99, [&](std::uint32_t, const int& v) {
    if (v == 99) received.fetch_add(1);
  });
  EXPECT_EQ(received.load(), 4);
}
