// Tests for the runtime QSBR extension (Algorithm 2): defer/checkpoint
// semantics, DeferList ordering (Lemma 4), safe-epoch reclamation
// (Lemma 5), parking, and multi-threaded stress.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "reclaim/qsbr.hpp"

namespace reclaim = rcua::reclaim;
namespace rt = rcua::rt;

namespace {

std::atomic<int> destroyed{0};
struct Counted {
  ~Counted() { destroyed.fetch_add(1, std::memory_order_relaxed); }
};

struct Canary {
  static constexpr std::uint64_t kAlive = 0xA11CE5ED;
  std::atomic<std::uint64_t> state{kAlive};
  ~Canary() { state.store(0, std::memory_order_relaxed); }
};

}  // namespace

TEST(Qsbr, DeferBumpsStateEpoch) {
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  const auto e0 = qsbr.current_epoch();
  qsbr.defer_delete(new int(1));
  EXPECT_EQ(qsbr.current_epoch(), e0 + 1);
  EXPECT_EQ(qsbr.pending_on_this_thread(), 1u);
  qsbr.checkpoint();  // sole participant: immediately reclaimable
  EXPECT_EQ(qsbr.pending_on_this_thread(), 0u);
}

TEST(Qsbr, SoloThreadCheckpointReclaimsEverything) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  for (int i = 0; i < 10; ++i) qsbr.defer_delete(new Counted);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(qsbr.checkpoint(), 10u);
  EXPECT_EQ(destroyed.load(), 10);
}

TEST(Qsbr, DeferListSortedDescending) {
  // Lemma 4: LIFO insertion of monotone epochs keeps the list descending.
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  for (int i = 0; i < 5; ++i) qsbr.defer_delete(new int(i));
  const auto& list = reg.local_record().slots[0].defer_list;
  std::uint64_t prev = ~0ULL;
  for (const reclaim::DeferNode* n = list.head(); n != nullptr; n = n->next) {
    EXPECT_LT(n->safe_epoch, prev);
    prev = n->safe_epoch;
  }
  qsbr.checkpoint();
}

TEST(Qsbr, LaggingThreadGatesReclamation) {
  // Lemma 5: reclamation is safe only once min observed epoch reaches the
  // entry's safe epoch.
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);

  std::atomic<bool> participated{false};
  std::atomic<bool> do_checkpoint{false};
  std::atomic<bool> done{false};
  std::thread lagger([&] {
    qsbr.defer_delete(new int(0));  // participate; observes some epoch
    qsbr.checkpoint();              // clean slate for the lagger itself
    participated.store(true);
    while (!do_checkpoint.load()) std::this_thread::yield();
    qsbr.checkpoint();  // finally observes the newer state
    done.store(true);
  });
  while (!participated.load()) std::this_thread::yield();

  qsbr.defer_delete(new Counted);  // newer epoch than the lagger observed
  rcua::obs::health::epoch_lag().reset();
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 0) << "reclaimed while a thread lagged";
  EXPECT_GE(rcua::obs::health::epoch_lag().value(), 1u)
      << "the laggard must show in the epoch-lag gauge";

  do_checkpoint.store(true);
  lagger.join();
  EXPECT_TRUE(done.load());
  // The lagger observed the new state; now our checkpoint may reclaim.
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Qsbr, ParkedThreadDoesNotGate) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread idler([&] {
    qsbr.defer_delete(new int(0));
    qsbr.checkpoint();
    qsbr.park();  // idle: promises quiescence
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
    qsbr.unpark();
  });
  while (!parked.load()) std::this_thread::yield();

  qsbr.defer_delete(new Counted);
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 1) << "parked thread wrongly gated reclamation";

  release.store(true);
  idler.join();
}

TEST(Qsbr, ThreadExitStopsGating) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  std::thread([&] {
    qsbr.defer_delete(new int(0));
    qsbr.checkpoint();
    // exits without checkpointing a newer state
  }).join();

  qsbr.defer_delete(new Counted);
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Qsbr, FlushUnsafeReclaimsAll) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  for (int i = 0; i < 4; ++i) qsbr.defer_delete(new Counted);
  qsbr.flush_unsafe();
  EXPECT_EQ(destroyed.load(), 4);
}

TEST(Qsbr, DomainDestructionFlushes) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  {
    reclaim::Qsbr qsbr(reg);
    qsbr.defer_delete(new Counted);
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Qsbr, DeferFnRunsCallback) {
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  static std::atomic<int> hits{0};
  hits.store(0);
  qsbr.defer_fn([](void*) { hits.fetch_add(1); }, nullptr);
  qsbr.checkpoint();
  EXPECT_EQ(hits.load(), 1);
}

TEST(Qsbr, StatsCountOperations) {
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  qsbr.defer_delete(new int(0));
  qsbr.defer_delete(new int(1));
  qsbr.checkpoint();
  const auto s = qsbr.stats();
  EXPECT_EQ(s.defers, 2u);
  EXPECT_EQ(s.checkpoints, 1u);
  EXPECT_EQ(s.reclaimed, 2u);
}

TEST(Qsbr, GlobalDomainExists) {
  auto& a = reclaim::Qsbr::global();
  auto& b = reclaim::Qsbr::global();
  EXPECT_EQ(&a, &b);
}

TEST(Qsbr, CheckpointOnlyReclaimsEligibleSuffix) {
  destroyed.store(0);
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);

  // Lagging peer pinned at an early epoch.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread peer([&] {
    qsbr.checkpoint();  // participate at the current epoch
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  const auto pin_epoch = qsbr.current_epoch();

  // Our own deferral sequence: one entry the peer's pin epoch permits
  // (impossible here — every defer bumps past the pin), so all must wait.
  qsbr.defer_delete(new Counted);
  qsbr.defer_delete(new Counted);
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_GT(qsbr.current_epoch(), pin_epoch);

  release.store(true);
  peer.join();
  qsbr.checkpoint();  // peer gone (parked on exit): everything frees
  EXPECT_EQ(destroyed.load(), 2);
}

// Multi-threaded canary stress: every thread defers replaced payloads and
// checkpoints periodically; nobody may ever observe a dead payload.
TEST(QsbrStress, CanariesStayAliveUntilQuiescence) {
  rt::ThreadRegistry reg;
  reclaim::Qsbr qsbr(reg);
  std::atomic<Canary*> shared{new Canary};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // A reader must participate before its first dereference, or the
      // other threads' checkpoints cannot see it.
      qsbr.ensure_participant();
      int ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Read the protected pointer; valid until our next checkpoint.
        Canary* c = shared.load(std::memory_order_acquire);
        if (c->state.load(std::memory_order_relaxed) != Canary::kAlive) {
          violations.fetch_add(1);
        }
        if (t == 0 && ops % 8 == 0) {
          // Writer role: replace and defer the old payload.
          auto* fresh = new Canary;
          Canary* old = shared.exchange(fresh, std::memory_order_acq_rel);
          qsbr.defer_delete(old);
        }
        if (++ops % 16 == 0) qsbr.checkpoint();
      }
      qsbr.checkpoint();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  delete shared.load();
  EXPECT_EQ(violations.load(), 0u);
}
