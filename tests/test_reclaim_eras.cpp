// Era-based reclamation (reclaim::Ibr / reclaim::HazardEras): unit
// coverage of the reservation/retire/scan machinery, and the headline
// robustness claim of DESIGN.md §13 — under a parked reader, the
// unreclaimed memory of the era policies stays below a constant bound
// independent of how long the reader stalls (how many resizes run past
// it), while EBR's deadline-deferred overflow list and QSBR's deferral
// queue grow linearly on the identical scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rcu_array.hpp"
#include "platform/topology.hpp"
#include "reclaim/eras.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fault_plan.hpp"

namespace rt = rcua::rt;
namespace reclaim = rcua::reclaim;

namespace {

void flag_free(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

/// A silent monitor for tests that assert on its counters (the global
/// one would also print to stderr and mix state across tests).
struct SilentMonitor {
  explicit SilentMonitor(std::uint64_t deadline_ns = 0)
      : monitor(/*budget_bytes=*/0, deadline_ns) {
    monitor.set_sink(&sink);
  }
  reclaim::CaptureStallSink sink;
  reclaim::StallMonitor monitor;
};

}  // namespace

// ---------------------------------------------------------------------
// Domain-level typed tests over both era schemes.
// ---------------------------------------------------------------------

template <typename Dom>
class EraDomainTest : public ::testing::Test {};

using EraDomains = ::testing::Types<reclaim::Ibr, reclaim::HazardEras>;
TYPED_TEST_SUITE(EraDomainTest, EraDomains);

TYPED_TEST(EraDomainTest, RetireWithoutReadersFreesImmediately) {
  TypeParam dom;
  std::atomic<bool> freed[3] = {};
  for (int i = 0; i < 3; ++i) {
    const auto res =
        dom.retire(&flag_free, &freed[i], /*bytes=*/8, dom.current_era());
    EXPECT_EQ(res.freed_objects, 1u);
    EXPECT_EQ(res.pending_objects, 0u);
    EXPECT_TRUE(freed[i].load());
  }
  const auto s = dom.stats();
  EXPECT_EQ(s.retired, 3u);
  EXPECT_EQ(s.freed, 3u);
  EXPECT_EQ(s.epoch_advances, 3u);  // era_freq defaults to 1
  EXPECT_GE(s.era_scans, 3u);
  EXPECT_EQ(s.pending_bytes, 0u);
  EXPECT_GE(s.pending_bytes_hwm, 8u);
}

TYPED_TEST(EraDomainTest, GuardBlocksOverlappingLifetimeUntilRelease) {
  TypeParam dom;
  std::atomic<bool> freed{false};
  std::atomic<std::atomic<bool>*> src{&freed};
  {
    typename TypeParam::ReadGuard guard(dom);
    std::atomic<bool>* p = guard.protect(src);
    ASSERT_EQ(p, &freed);
    // Unpublish, then retire the object the guard protects: the
    // reservation's interval overlaps its [0, now] lifetime.
    src.store(nullptr, std::memory_order_seq_cst);
    const auto res = dom.retire(&flag_free, &freed, 8, /*birth_era=*/0);
    EXPECT_EQ(res.freed_objects, 0u);
    EXPECT_EQ(res.pending_objects, 1u);
    EXPECT_FALSE(freed.load());
    EXPECT_EQ(dom.active_reservations(), 1u);
  }
  // Guard gone: the next scan frees it.
  const auto res = dom.scan();
  EXPECT_EQ(res.freed_objects, 1u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(dom.pending_objects(), 0u);
}

TYPED_TEST(EraDomainTest, StalledReservationBoundsPendingByConstruction) {
  // The bounded-memory argument at domain granularity: one reader parks
  // inside a section while a writer runs R retire rounds past it. Only
  // objects whose lifetime overlaps the parked reservation stay pending
  // — everything born after the reservation's upper bound is freed on
  // its own retire — so pending never exceeds a constant, independent
  // of R.
  TypeParam dom;
  constexpr int kRounds = 32;
  std::atomic<bool> freed[kRounds + 1] = {};
  std::atomic<std::atomic<bool>*> src{&freed[0]};

  typename TypeParam::ReadGuard guard(dom);
  std::atomic<bool>* held = guard.protect(src);
  ASSERT_EQ(held, &freed[0]);

  std::uint64_t live_birth = 0;  // freed[0] born at era 0
  std::size_t max_pending = 0;
  for (int r = 1; r <= kRounds; ++r) {
    std::atomic<bool>* old = src.load(std::memory_order_seq_cst);
    const std::uint64_t fresh_birth = dom.current_era();
    src.store(&freed[r], std::memory_order_seq_cst);
    const auto res =
        dom.retire(&flag_free, old, 8, std::exchange(live_birth, fresh_birth));
    max_pending = std::max(max_pending, res.pending_objects);
  }
  // The parked reservation pins freed[0] and freed[1] (whose birth at
  // era 0 still predates the reservation's upper bound) — and nothing
  // else, ever.
  EXPECT_LE(max_pending, 2u);
  EXPECT_FALSE(freed[0].load());
  // Everything born after the reservation was freed along the way.
  for (int r = 2; r < kRounds; ++r) {
    EXPECT_TRUE(freed[r].load()) << "round " << r;
  }
}

TYPED_TEST(EraDomainTest, LowerBoundPinsOnlyUnderIbr) {
  TypeParam dom;
  std::atomic<int> obj{7};
  std::atomic<std::atomic<int>*> src{&obj};
  typename TypeParam::ReadGuard guard(dom);
  (void)guard.protect(src);
  const std::size_t me = rcua::plat::reader_index();
  const auto first = dom.reservation_at(me);
  EXPECT_EQ(first.lower, 0u);
  EXPECT_EQ(first.upper, 0u);

  dom.advance_era();
  dom.advance_era();
  (void)guard.protect(src);
  const auto second = dom.reservation_at(me);
  EXPECT_EQ(second.upper, 2u);
  if constexpr (TypeParam::kPinLower) {
    EXPECT_EQ(second.lower, 0u) << "IBR pins the section-entry era";
  } else {
    EXPECT_EQ(second.lower, 2u) << "hazard eras republish a single era";
  }
}

TYPED_TEST(EraDomainTest, FenceWaitSeesPreFenceSection) {
  TypeParam dom;
  std::atomic<int> obj{1};
  std::atomic<std::atomic<int>*> src{&obj};
  auto guard = std::make_unique<typename TypeParam::ReadGuard>(dom);
  (void)guard->protect(src);
  const std::uint64_t fence = dom.advance_era();
  EXPECT_EQ(dom.readers_below(fence), 1u);

  std::atomic<bool> waited{false};
  std::thread writer([&] {
    dom.wait_for_readers(fence);
    waited.store(true);
  });
  // Give the writer a real chance to (incorrectly) slip past the reader.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(waited.load());

  guard.reset();
  writer.join();
  EXPECT_TRUE(waited.load());
  EXPECT_EQ(dom.readers_below(fence), 0u);
  dom.wait_for_readers(fence);  // must return immediately
}

TYPED_TEST(EraDomainTest, NestedSectionRestoresTheOuterReservation) {
  // A section nested in another on the same domain shares the thread's
  // slot: it keeps the outer lower bound, raises the upper, and hands
  // the outer reservation back when it ends, so the outer section's
  // object stays blocked until the outer section itself ends.
  TypeParam dom;
  std::atomic<bool> freed{false};
  std::atomic<std::atomic<bool>*> src{&freed};
  std::atomic<int> other{0};
  std::atomic<std::atomic<int>*> other_src{&other};
  const std::size_t me = rcua::plat::reader_index();
  {
    typename TypeParam::ReadGuard outer(dom);
    ASSERT_EQ(outer.protect(src), &freed);
    dom.advance_era();
    dom.advance_era();
    {
      typename TypeParam::ReadGuard inner(dom);
      (void)inner.protect(other_src);
      const auto nested = dom.reservation_at(me);
      EXPECT_EQ(nested.lower, 0u) << "the outer lower bound is kept";
      EXPECT_EQ(nested.upper, 2u) << "only the upper bound is raised";
      EXPECT_EQ(dom.active_reservations(), 1u) << "one slot per thread";
    }
    const auto restored = dom.reservation_at(me);
    EXPECT_EQ(restored.lower, 0u);
    EXPECT_EQ(restored.upper, 0u);

    src.store(nullptr, std::memory_order_seq_cst);
    const auto res = dom.retire(&flag_free, &freed, 8, /*birth_era=*/0);
    EXPECT_EQ(res.freed_objects, 0u);
    EXPECT_EQ(res.pending_objects, 1u);
    EXPECT_FALSE(freed.load()) << "freed under the live outer section";
  }
  EXPECT_EQ(dom.reservation_at(me).upper, TypeParam::kIdleEra);
  EXPECT_EQ(dom.scan().freed_objects, 1u);
  EXPECT_TRUE(freed.load());
}

namespace {
/// Opens `depth` sections on `dom`, each nested in the previous one, and
/// protects `src` in each; returns the reservation seen innermost.
template <typename Dom>
typename Dom::Reservation nest(Dom& dom,
                               const std::atomic<std::atomic<int>*>& src,
                               int depth) {
  typename Dom::ReadGuard guard(dom);
  (void)guard.protect(src);
  if (depth == 1) return dom.reservation_at(rcua::plat::reader_index());
  return nest(dom, src, depth - 1);
}
}  // namespace

TYPED_TEST(EraDomainTest, DeepNestingNeverWaitsForASlot) {
  // A reader never waits: however deep one thread nests sections on one
  // domain, every section uses the thread's own slot, so a thread may
  // hold more sections than any fixed pool of claimable slots.
  TypeParam dom;
  std::atomic<int> obj{0};
  std::atomic<std::atomic<int>*> src{&obj};
  dom.advance_era();
  const auto innermost = nest(dom, src, /*depth=*/600);
  EXPECT_EQ(innermost.lower, 1u);
  EXPECT_EQ(innermost.upper, 1u);
  EXPECT_EQ(dom.active_reservations(), 0u);
}

TYPED_TEST(EraDomainTest, ConcurrentReadersLandOnDistinctSlots) {
  // Readers on different threads publish into their own reader index's
  // slot, so a scan sees one reservation per live reader.
  TypeParam dom;
  std::atomic<int> obj{0};
  std::atomic<std::atomic<int>*> src{&obj};
  constexpr int kReaders = 3;
  std::atomic<int> inside{0};
  std::atomic<bool> release{false};
  std::size_t index[kReaders] = {};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      typename TypeParam::ReadGuard guard(dom);
      (void)guard.protect(src);
      index[t] = rcua::plat::reader_index();
      inside.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (inside.load() != kReaders) std::this_thread::yield();
  EXPECT_EQ(dom.active_reservations(), static_cast<std::uint64_t>(kReaders));
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(dom.reservation_at(index[t]).upper, 0u) << "reader " << t;
    for (int u = 0; u < t; ++u) EXPECT_NE(index[t], index[u]);
  }
  release.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(dom.active_reservations(), 0u);
}

TYPED_TEST(EraDomainTest, FlushUnsafeFreesEverything) {
  TypeParam dom;
  std::atomic<bool> freed{false};
  {
    typename TypeParam::ReadGuard guard(dom);
    std::atomic<std::atomic<bool>*> src{&freed};
    (void)guard.protect(src);
    dom.retire(&flag_free, &freed, 16, 0);
    EXPECT_EQ(dom.pending_objects(), 1u);
    const auto res = dom.flush_unsafe();
    EXPECT_EQ(res.freed_objects, 1u);
    EXPECT_EQ(res.freed_bytes, 16u);
  }
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(dom.pending_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Array-level: the bake-off's deterministic robustness gate.
// ---------------------------------------------------------------------

template <typename Policy>
class EraArrayTest : public ::testing::Test {};

using EraPolicies = ::testing::Types<rcua::IbrPolicy, rcua::HazardErasPolicy>;
TYPED_TEST_SUITE(EraArrayTest, EraPolicies);

TYPED_TEST(EraArrayTest, ParkedViewBoundsUnreclaimedSpines) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  std::size_t max_pending = 0;
  {
    auto view = arr.view();  // the indefinitely stalled reader
    for (int r = 0; r < kResizes; ++r) {
      arr.resize_add(64);
      max_pending = std::max(max_pending, arr.reclaim_pending_objects());
    }
    // The bound: <= 2 spines per locale, INDEPENDENT of kResizes. (The
    // view pins one locale; other locales' readers are idle, so their
    // retires free immediately.)
    EXPECT_LE(max_pending, 2u * cluster.num_locales());
    EXPECT_EQ(arr.capacity(), 64u * (kResizes + 1));
    // No overflow machinery involved, ever: the bound needs no budget.
    EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.escalations(), 0u);
    EXPECT_EQ(arr.stalled_spines(), 0u);
  }
  // Reader gone: one manual retry drains the era retire lists.
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
  EXPECT_EQ(arr.reclaim_pending_bytes(), 0u);
}

TYPED_TEST(EraArrayTest, EraStallDiagnosticIsStructuredAndNonEscalating) {
  // Satellite: StallMonitor escalation coverage for a policy that never
  // defers — the era reclaimers must report the stalled reader as a
  // structured kEraReservation diagnostic while keeping overflow bytes
  // at exactly zero (no budget pressure, no escalation path).
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 64, opts);

  {
    auto view = arr.view();
    // Era lag grows by ~1 per resize; the diagnostic fires at the
    // threshold (3) and on every retire past it.
    for (int r = 0; r < 8; ++r) arr.resize_add(64);
    EXPECT_GE(sm.monitor.stalls(), 1u);
    const auto records = sm.sink.records();
    ASSERT_FALSE(records.empty());
    for (const auto& d : records) {
      EXPECT_EQ(d.kind, reclaim::StallDiagnostic::Kind::kEraReservation);
      EXPECT_NE(d.domain, nullptr);
      EXPECT_EQ(d.locale, 0u);
      EXPECT_GE(d.era_lag, 3u);
      EXPECT_NE(d.slot, SIZE_MAX);     // the laggard slot is named
      EXPECT_NE(d.thread_id, 0u);      // ... and the thread that owns it
      EXPECT_NE(d.describe().find("thread"), std::string::npos)
          << d.describe();
      EXPECT_GT(d.overflow_bytes, 0u);   // pending (bounded) bytes
      EXPECT_EQ(d.budget_bytes, 0u);     // no budget in play
      EXPECT_FALSE(d.describe().empty());
    }
    // The never-defers contract, asserted against the monitor itself.
    EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.peak_overflow_bytes(), 0u);
    EXPECT_EQ(sm.monitor.escalations(), 0u);
    EXPECT_EQ(sm.monitor.overflow_objects(), 0u);
  }
}

TYPED_TEST(EraArrayTest, ChaosStalledReaderKeepsResizeLiveAndBounded) {
  // FaultPlan chaos: reader threads stalled mid-section (real sleeps)
  // while a resize train runs. Era retirement never blocks on them, the
  // pending set stays bounded throughout, and everything drains once
  // the readers exit.
  rt::FaultPlan plan(/*seed=*/7);
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  SilentMonitor sm;
  typename rcua::RCUArray<int, TypeParam>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, TypeParam> arr(cluster, 4 * 64, opts);
  plan.add({.action = rt::FaultPlan::Action::kStallReader,
            .locale = 0,
            .fire_from = 1,
            .fire_count = 8,
            .delay_ns = 2ull * 1000 * 1000});  // 2 ms mid-section stalls
  cluster.set_fault_plan(&plan);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += static_cast<std::uint64_t>(arr.read(0));
      }
      (void)sink;
    });
  }
  std::size_t max_pending = 0;
  for (int r = 0; r < 16; ++r) {
    arr.resize_add(64);
    max_pending = std::max(max_pending, arr.reclaim_pending_objects());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  cluster.set_fault_plan(nullptr);

  EXPECT_LE(max_pending, 2u * cluster.num_locales());
  EXPECT_EQ(sm.monitor.overflow_bytes(), 0u);
  EXPECT_EQ(sm.monitor.escalations(), 0u);
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
}

// ---------------------------------------------------------------------
// The contrast half of the headline claim: EBR and QSBR on the SAME
// parked-reader scenario grow without bound.
// ---------------------------------------------------------------------

TEST(EraContrast, EbrOverflowGrowsLinearlyUnderParkedReader) {
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  // Non-blocking drain, so the parked view defers instead of hanging
  // the resize train (the §9 watchdog path).
  SilentMonitor sm(/*deadline_ns=*/1);
  rcua::RCUArray<int, rcua::EbrPolicy>::Options opts;
  opts.block_size = 64;
  opts.stall_monitor = &sm.monitor;
  rcua::RCUArray<int, rcua::EbrPolicy> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  {
    auto view = arr.view();
    for (int r = 0; r < kResizes; ++r) arr.resize_add(64);
    // Every retired spine is parked behind the stalled reader: the
    // unreclaimed set grows with the stall duration — the fragility the
    // era policies remove. (>= rather than == : the very first deferral
    // may still free if the drain won the race before the view parked.)
    EXPECT_GE(arr.reclaim_pending_objects(),
              static_cast<std::size_t>(kResizes - 1));
    EXPECT_GT(sm.monitor.overflow_bytes(), 0u);
  }
  arr.reclaim_overflow();
  EXPECT_EQ(arr.reclaim_pending_objects(), 0u);
}

TEST(EraContrast, QsbrDeferralsGrowLinearlyUnderLaggardParticipant) {
  reclaim::Qsbr qsbr;
  rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<int, rcua::QsbrPolicy>::Options opts;
  opts.block_size = 64;
  opts.qsbr = &qsbr;
  rcua::RCUArray<int, rcua::QsbrPolicy> arr(cluster, 64, opts);

  constexpr int kResizes = 24;
  // This thread is a participant (every array op registers it) that
  // never checkpoints: the safe-epoch minimum is pinned, and every
  // deferred spine stays unreclaimed — linear growth in the laggard's
  // stall duration.
  (void)arr.read(0);
  for (int r = 0; r < kResizes; ++r) arr.resize_add(64);
  const auto s = qsbr.stats();
  EXPECT_GE(s.defers, static_cast<std::uint64_t>(kResizes));
  EXPECT_EQ(s.reclaimed, 0u);
  EXPECT_GE(qsbr.pending_total(), static_cast<std::size_t>(kResizes));
  // The laggard checkpoints, then the surviving workers checkpoint
  // (defer lists are per-thread). A pool worker that already exited
  // leaves its deferrals on its slot until the next owner of its reader
  // index checkpoints — flush_unsafe() takes that remainder (legal: no
  // live readers) — so the robust drain is checkpoints plus a final
  // flush, measured by pending_total().
  qsbr.checkpoint();
  cluster.coforall_locales([&](std::uint32_t) { qsbr.checkpoint(); });
  qsbr.checkpoint();
  qsbr.flush_unsafe();
  EXPECT_EQ(qsbr.pending_total(), 0u);
}
