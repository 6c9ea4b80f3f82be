// Integration tests: whole-system workloads and virtual-time *shape*
// assertions — the qualitative claims of the paper's evaluation encoded
// as tests, so a regression in either the algorithms or the cost model
// that would flip a paper conclusion fails CI.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rcua.hpp"

namespace rt = rcua::rt;
namespace sim = rcua::sim;
using rcua::EbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;

namespace {

/// Virtual-time throughput of `ops` update operations per task under the
/// given array, random pattern, on a fresh cluster.
template <typename ArrayT>
double vtime_throughput(std::uint32_t locales, std::uint32_t tpl,
                        std::uint64_t ops, bool sequential,
                        std::size_t array_elems = 1 << 16) {
  rt::Cluster cluster(
      {.num_locales = locales, .workers_per_locale = tpl + 2});
  ArrayT arr(cluster, array_elems);
  const std::uint64_t total =
      static_cast<std::uint64_t>(locales) * tpl * ops;
  sim::TaskClock root;
  {
    sim::ClockScope scope(root);
    cluster.coforall_tasks(tpl, [&](std::uint32_t l, std::uint32_t t) {
      const std::uint64_t gid = static_cast<std::uint64_t>(l) * tpl + t;
      if (sequential) {
        const std::uint64_t start = gid * ops % array_elems;
        for (std::uint64_t n = 0; n < ops; ++n) {
          arr.write((start + n) % array_elems, n);
        }
      } else {
        rcua::plat::Xoshiro256 rng(gid + 1);
        for (std::uint64_t n = 0; n < ops; ++n) {
          arr.write(rng.next_below(array_elems), n);
        }
      }
    });
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
  return static_cast<double>(total) /
         (static_cast<double>(root.vtime_ns) * 1e-9);
}

}  // namespace

// --------- Shape assertions (the paper's Figure 2/3 conclusions) -------

TEST(Shape, QsbrTracksUnsynchronizedArray) {
  const double qsbr = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      4, 8, 512, /*sequential=*/false);
  const double chapel =
      vtime_throughput<rcua::baseline::UnsafeArray<std::uint64_t>>(
          4, 8, 512, false);
  // "QSBRArray offers competitive performance to the unsynchronized
  // ChapelArray, slightly losing for random-access patterns".
  EXPECT_LT(qsbr, chapel);
  EXPECT_GT(qsbr, 0.8 * chapel);
}

TEST(Shape, QsbrBeatsUnsynchronizedSequential) {
  const double qsbr = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      4, 8, 512, /*sequential=*/true);
  const double chapel =
      vtime_throughput<rcua::baseline::UnsafeArray<std::uint64_t>>(
          4, 8, 512, true);
  // "...but exceeds ChapelArray in performance when it comes to
  // sequential-access patterns" (paper: ~1.5x).
  EXPECT_GT(qsbr, 1.1 * chapel);
  EXPECT_LT(qsbr, 2.0 * chapel);
}

TEST(Shape, LegacyEbrIsASmallFractionOfQsbr) {
  const double ebr =
      vtime_throughput<RCUArray<std::uint64_t, rcua::LegacyEbrPolicy>>(
          4, 16, 512, false);
  const double qsbr = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      4, 16, 512, false);
  // "EBRArray ... can offer as little as 2% of the read and update
  // performance"; at 16 tasks/locale the collapse must already be large.
  // This is the paper's two-counter layout: every reader RMW transfers
  // the one shared EpochReaders line.
  EXPECT_LT(ebr, 0.15 * qsbr);
  EXPECT_GT(ebr, 0.001 * qsbr);
}

TEST(Shape, OwnedEbrClosesMostOfTheQsbrGap) {
  const double owned = vtime_throughput<RCUArray<std::uint64_t, EbrPolicy>>(
      4, 16, 512, false);
  const double legacy =
      vtime_throughput<RCUArray<std::uint64_t, rcua::LegacyEbrPolicy>>(
          4, 16, 512, false);
  const double qsbr = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      4, 16, 512, false);
  // Owned reader slots remove the shared-line serialization: at 64
  // tasks the default EbrPolicy must land within 2x of QSBR instead of
  // the legacy collapse, and beat the two-counter layout by >=3x.
  EXPECT_GT(owned, 0.5 * qsbr);
  EXPECT_GT(owned, 3.0 * legacy);
}

TEST(Shape, SyncArrayDoesNotScale) {
  const double at2 = vtime_throughput<rcua::baseline::SyncArray<std::uint64_t>>(
      2, 8, 128, false);
  const double at8 = vtime_throughput<rcua::baseline::SyncArray<std::uint64_t>>(
      8, 8, 128, false);
  // Mutual exclusion: more locales must NOT help (paper: it degrades).
  EXPECT_LT(at8, 1.2 * at2);
}

TEST(Shape, QsbrScalesWithLocales) {
  const double at2 = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      2, 8, 512, false);
  const double at8 = vtime_throughput<RCUArray<std::uint64_t, QsbrPolicy>>(
      8, 8, 512, false);
  EXPECT_GT(at8, 2.0 * at2);  // near-linear scaling (4x locales)
}

TEST(Shape, RcuResizeBeatsCopyResize) {
  auto resize_rate = [](auto make_arr) {
    rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
    auto arr = make_arr(cluster);
    sim::TaskClock root;
    {
      sim::ClockScope scope(root);
      for (int i = 0; i < 64; ++i) arr->resize_add(1024);
    }
    rcua::reclaim::Qsbr::global().flush_unsafe();
    return 64.0 / (static_cast<double>(root.vtime_ns) * 1e-9);
  };
  const double rcu = resize_rate([](rt::Cluster& c) {
    return std::make_unique<RCUArray<std::uint64_t, QsbrPolicy>>(c, 0);
  });
  const double chapel = resize_rate([](rt::Cluster& c) {
    return std::make_unique<rcua::baseline::UnsafeArray<std::uint64_t>>(c, 0);
  });
  // Paper: "exceeding ChapelArray by over 4x".
  EXPECT_GT(rcu, 3.0 * chapel);
}

TEST(Shape, CheckpointFrequencyCostIsMonotone) {
  auto qsbr_rate = [](std::uint64_t cadence) {
    rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 10});
    RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 1 << 14);
    sim::TaskClock root;
    {
      sim::ClockScope scope(root);
      cluster.coforall_tasks(8, [&](std::uint32_t, std::uint32_t t) {
        for (std::uint64_t n = 0; n < 4096; ++n) {
          arr.write((t * 4096 + n) % (1 << 14), n);
          if (cadence && (n + 1) % cadence == 0) {
            rcua::reclaim::Qsbr::global().checkpoint();
          }
        }
      });
    }
    rcua::reclaim::Qsbr::global().flush_unsafe();
    return 8 * 4096.0 / (static_cast<double>(root.vtime_ns) * 1e-9);
  };
  const double every1 = qsbr_rate(1);
  const double every64 = qsbr_rate(64);
  const double never = qsbr_rate(0);
  EXPECT_LT(every1, every64);
  EXPECT_LE(every64, 1.05 * never);
}

// --------- Full-system workloads ---------------------------------------

TEST(Integration, EverythingAtOnce) {
  // Readers, updaters, resizers, a DistVector and a DistHashMap sharing
  // one cluster, one QSBR domain, and the pool's parking machinery.
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 6});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 4096, {.block_size = 512});
  rcua::cont::DistVector<std::uint64_t> vec(cluster, {.block_size = 256});
  rcua::cont::DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = 128, .block_size = 128});

  std::atomic<std::uint64_t> violations{0};
  cluster.coforall_tasks(4, [&](std::uint32_t l, std::uint32_t t) {
    rcua::plat::Xoshiro256 rng(l * 1000 + t);
    for (int i = 0; i < 1500; ++i) {
      switch (rng.next_below(8)) {
        case 0:
          if (l == 0 && t == 0 && i % 500 == 0) arr.resize_add(512);
          break;
        case 1:
          vec.push_back(rng.next());
          break;
        case 2: {
          const std::uint64_t k = rng.next_below(512);
          map.insert(k, k + 42);
          break;
        }
        case 3: {
          const std::uint64_t k = rng.next_below(512);
          auto v = map.find(k);
          if (v && *v != k + 42) violations.fetch_add(1);
          break;
        }
        default: {
          const std::size_t idx = rng.next_below(4096);
          arr.write(idx, idx + 1);
          if (arr.read(idx) == 0) {
            // Racy but only transiently zero before first write; a
            // nonzero slot can never read zero again. Re-check:
            if (arr.read(idx) != idx + 1) violations.fetch_add(1);
          }
          break;
        }
      }
      if (i % 200 == 0) rcua::reclaim::Qsbr::global().checkpoint();
    }
    rcua::reclaim::Qsbr::global().checkpoint();
  });

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(vec.size(), 0u);
  EXPECT_GT(map.size(), 0u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(Integration, NoLeaksAfterHeavyChurn) {
  const auto blocks_before = rcua::Block<std::uint64_t>::live_count();
  const auto spines_before = rcua::Snapshot<std::uint64_t>::live_count();
  {
    rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
    for (int round = 0; round < 3; ++round) {
      RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 1024,
                                              {.block_size = 128});
      cluster.coforall_tasks(2, [&](std::uint32_t, std::uint32_t) {
        for (int i = 0; i < 200; ++i) arr.write(i % 1024, i);
      });
      for (int i = 0; i < 8; ++i) arr.resize_add(128);
      rcua::reclaim::Qsbr::global().flush_unsafe();
    }
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
  EXPECT_EQ(rcua::Block<std::uint64_t>::live_count(), blocks_before);
  EXPECT_EQ(rcua::Snapshot<std::uint64_t>::live_count(), spines_before);
}

TEST(Integration, WallclockModeAlsoMeasures) {
  // The harness's wallclock fallback must produce a finite positive rate.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 4});
  RCUArray<std::uint64_t, QsbrPolicy> arr(cluster, 4096);
  rcua::plat::Timer timer;
  cluster.coforall_tasks(2, [&](std::uint32_t l, std::uint32_t t) {
    for (std::uint64_t n = 0; n < 2000; ++n) {
      arr.write((l * 1000 + t * 100 + n) % 4096, n);
    }
  });
  EXPECT_GT(timer.elapsed_ns(), 0u);
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
