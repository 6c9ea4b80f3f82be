// Tests for the runtime QSBR extension (Algorithm 2): defer/checkpoint
// semantics, DeferList ordering (Lemma 4), safe-epoch reclamation
// (Lemma 5), per-thread slots on the reader bank (join, exit, index
// reuse), parking, and multi-threaded stress.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "platform/topology.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/retire_list.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"

namespace reclaim = rcua::reclaim;
namespace sim = rcua::sim;

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

/// A participant pinned at the epoch it joined at until release(): the
/// lagging peer of the gating tests.
class PinnedPeer {
 public:
  explicit PinnedPeer(reclaim::Qsbr& qsbr)
      : thread_([this, &qsbr] {
          qsbr.ensure_participant();
          pinned_.store(true);
          while (!release_.load()) std::this_thread::yield();
          if (catch_up_.load()) qsbr.checkpoint();
        }) {
    while (!pinned_.load()) std::this_thread::yield();
  }
  ~PinnedPeer() { release(false); }
  PinnedPeer(const PinnedPeer&) = delete;
  PinnedPeer& operator=(const PinnedPeer&) = delete;

  /// Lets the peer exit, after a checkpoint when `catch_up`.
  void release(bool catch_up) {
    if (!thread_.joinable()) return;
    catch_up_.store(catch_up);
    release_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> pinned_{false};
  std::atomic<bool> release_{false};
  std::atomic<bool> catch_up_{false};
  std::thread thread_;
};

}  // namespace

TEST(DeferList, PushPopOrdering) {
  reclaim::DeferList list;
  EXPECT_TRUE(list.empty());
  list.push(reclaim::make_defer_node<int>(new int(1), 10));
  list.push(reclaim::make_defer_node<int>(new int(2), 20));
  list.push(reclaim::make_defer_node<int>(new int(3), 30));
  EXPECT_EQ(list.size(), 3u);
  // Descending by safe epoch from the head (Lemma 4).
  EXPECT_EQ(list.head()->safe_epoch, 30u);

  // Split at <= 15: only the epoch-10 suffix comes off.
  reclaim::DeferNode* chain = list.pop_less_equal(15);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->safe_epoch, 10u);
  EXPECT_EQ(chain->next, nullptr);
  reclaim::DeferList::reclaim_chain(chain);
  EXPECT_EQ(list.size(), 2u);

  // Split at <= 30: everything.
  chain = list.pop_less_equal(30);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->safe_epoch, 30u);
  EXPECT_EQ(chain->next->safe_epoch, 20u);
  reclaim::DeferList::reclaim_chain(chain);
  EXPECT_TRUE(list.empty());
}

TEST(DeferList, PopLessEqualOnEmptyIsNull) {
  reclaim::DeferList list;
  EXPECT_EQ(list.pop_less_equal(100), nullptr);
}

TEST(DeferList, FreeAllRunsDeleters) {
  destroyed = 0;
  {
    reclaim::DeferList list;
    list.push(reclaim::make_defer_node(new Counted, 1));
    list.push(reclaim::make_defer_node(new Counted, 2));
    list.free_all();
    EXPECT_EQ(destroyed, 2);
  }
}

TEST(DeferList, DestructorReclaimsPending) {
  destroyed = 0;
  {
    reclaim::DeferList list;
    list.push(reclaim::make_defer_node(new Counted, 1));
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(DeferNode, FnNodeRunsCallback) {
  static int hits = 0;
  hits = 0;
  auto* n = reclaim::make_defer_node_fn(
      [](void*) { ++hits; }, nullptr, 5);
  EXPECT_EQ(n->safe_epoch, 5u);
  n->run_and_dispose();
  EXPECT_EQ(hits, 1);
}

TEST(Qsbr, DeferBumpsStateEpoch) {
  reclaim::Qsbr qsbr;
  const auto e0 = qsbr.current_epoch();
  qsbr.defer_delete(new int(1));
  EXPECT_EQ(qsbr.current_epoch(), e0 + 1);
  EXPECT_EQ(qsbr.pending_on_this_thread(), 1u);
  qsbr.checkpoint();  // sole participant: immediately reclaimable
  EXPECT_EQ(qsbr.pending_on_this_thread(), 0u);
}

TEST(Qsbr, SoloThreadCheckpointReclaimsEverything) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  for (int i = 0; i < 10; ++i) qsbr.defer_delete(new Counted);
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(qsbr.checkpoint(), 10u);
  EXPECT_EQ(destroyed.load(), 10);
}

TEST(Qsbr, DeferListSortedDescending) {
  // Lemma 4: LIFO insertion of monotone epochs keeps the list descending,
  // so a checkpoint splits off exactly the entries at or below the
  // minimum: the three deferred before the peer joined, not the two after.
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  for (int i = 0; i < 3; ++i) qsbr.defer_delete(new Counted);
  PinnedPeer peer(qsbr);
  for (int i = 0; i < 2; ++i) qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 3u);
  EXPECT_EQ(qsbr.pending_on_this_thread(), 2u);
  peer.release(/*catch_up=*/true);
  EXPECT_EQ(qsbr.checkpoint(), 2u);
  EXPECT_EQ(destroyed.load(), 5);
}

TEST(Qsbr, LaggingThreadGatesReclamation) {
  // Lemma 5: reclamation is safe only once min observed epoch reaches the
  // entry's safe epoch.
  destroyed.store(0);
  reclaim::Qsbr qsbr;

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
  reclaim::Qsbr qsbr;

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
  reclaim::Qsbr qsbr;
  std::thread([&] {
    qsbr.defer_delete(new int(0));
    qsbr.checkpoint();
    // exits without checkpointing a newer state
  }).join();

  qsbr.defer_delete(new Counted);
  qsbr.checkpoint();
  EXPECT_EQ(destroyed.load(), 1);
}

// flush_unsafe() drains every thread's list, not only the caller's.
TEST(Qsbr, FlushUnsafeReclaimsAll) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  PinnedPeer peer(qsbr);
  for (int i = 0; i < 4; ++i) qsbr.defer_delete(new Counted);
  std::thread([&] {
    qsbr.defer_delete(new Counted);
    qsbr.defer_delete(new Counted);
  }).join();
  EXPECT_EQ(qsbr.pending_total(), 6u);
  qsbr.flush_unsafe();
  EXPECT_EQ(destroyed.load(), 6);
  EXPECT_EQ(qsbr.pending_total(), 0u);
}

// flush_unsafe() also waits out a chain that a parking thread popped but
// has not run yet: a pool worker can park while the caller flushes, and
// the caller then reads state the popped callbacks still change.
TEST(Qsbr, FlushUnsafeWaitsForAChainParkPopped) {
  static std::atomic<int> step;
  static std::atomic<bool> ran;
  step.store(0);
  ran.store(false);
  reclaim::Qsbr qsbr;
  qsbr.test_hook = [](reclaim::Qsbr&, int phase) {
    if (phase != reclaim::Qsbr::kHookParkPopped) return;
    step.store(1);  // popped: hold the chain until released
    while (step.load() != 2) std::this_thread::yield();
  };
  std::thread parker([&] {
    qsbr.defer_fn([](void*) { ran.store(true); }, nullptr);
    qsbr.park();  // sole participant: its deferral is popped
    qsbr.unpark();
  });
  while (step.load() != 1) std::this_thread::yield();

  std::atomic<bool> flushed{false};
  bool ran_at_return = false;
  std::thread flusher([&] {
    qsbr.flush_unsafe();
    ran_at_return = ran.load();
    flushed.store(true);
  });
  // Time for a flush that does not wait to return while the chain is held.
  for (int i = 0; i < 50 && !flushed.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  step.store(2);
  parker.join();
  flusher.join();
  EXPECT_TRUE(ran_at_return) << "flush_unsafe returned before the callback";
}

TEST(Qsbr, DomainDestructionFlushes) {
  destroyed.store(0);
  {
    reclaim::Qsbr qsbr;
    qsbr.defer_delete(new Counted);
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(Qsbr, DeferFnRunsCallback) {
  reclaim::Qsbr qsbr;
  static std::atomic<int> hits{0};
  hits.store(0);
  qsbr.defer_fn([](void*) { hits.fetch_add(1); }, nullptr);
  qsbr.checkpoint();
  EXPECT_EQ(hits.load(), 1);
}

TEST(Qsbr, StatsCountOperations) {
  reclaim::Qsbr qsbr;
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
  reclaim::Qsbr qsbr;

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
  qsbr.checkpoint();  // peer gone (its index returned): everything frees
  EXPECT_EQ(destroyed.load(), 2);
}

// Each thread has its own slot per domain, and finds the same one on
// every call.
TEST(Qsbr, PerThreadStateIsStableAndDistinct) {
  reclaim::Qsbr qsbr;
  PinnedPeer peer(qsbr);  // keeps every deferral pending
  qsbr.defer_delete(new int(0));
  qsbr.defer_delete(new int(1));
  EXPECT_EQ(qsbr.pending_on_this_thread(), 2u);
  std::thread([&] {
    EXPECT_EQ(qsbr.pending_on_this_thread(), 0u);
    qsbr.defer_delete(new int(2));
    EXPECT_EQ(qsbr.pending_on_this_thread(), 1u);
  }).join();
  EXPECT_EQ(qsbr.pending_on_this_thread(), 2u);
  EXPECT_EQ(qsbr.pending_total(), 3u);
  peer.release(/*catch_up=*/true);
  qsbr.flush_unsafe();
}

// Two domains on one thread keep separate slots: a laggard in one gates
// only that one.
TEST(Qsbr, TwoDomainsOnOneThreadAreIndependent) {
  destroyed.store(0);
  reclaim::Qsbr a;
  reclaim::Qsbr b;
  PinnedPeer lag_a(a);
  for (int k = 0; k < 4; ++k) {
    a.defer_delete(new Counted);
    b.defer_delete(new Counted);
  }
  EXPECT_EQ(a.pending_on_this_thread(), 4u);
  EXPECT_EQ(b.pending_on_this_thread(), 4u);
  EXPECT_EQ(b.checkpoint(), 4u);
  EXPECT_EQ(a.checkpoint(), 0u) << "a's laggard must gate a";
  lag_a.release(/*catch_up=*/true);
  EXPECT_EQ(a.checkpoint(), 4u);
  EXPECT_EQ(destroyed.load(), 8);
}

// No cap on domains: more than eight live at once on one thread, each
// with its own participants and deferrals.
TEST(Qsbr, ManyDomainsLiveAtOnceOnOneThread) {
  destroyed.store(0);
  constexpr int kDomains = 20;
  std::vector<std::unique_ptr<reclaim::Qsbr>> domains;
  for (int d = 0; d < kDomains; ++d) {
    domains.push_back(std::make_unique<reclaim::Qsbr>());
    domains.back()->defer_delete(new Counted);
  }
  for (auto& q : domains) {
    EXPECT_EQ(q->pending_on_this_thread(), 1u);
    EXPECT_EQ(q->checkpoint(), 1u);
  }
  EXPECT_EQ(destroyed.load(), kDomains);
}

// A domain rebuilt at the address of a destroyed one starts with no
// participants: a thread that had joined the old one joins the new one
// afresh, at its current state, and gates it from then on.
TEST(Qsbr, DomainRebuiltAtTheSameAddressStartsClean) {
  alignas(reclaim::Qsbr) std::byte storage[sizeof(reclaim::Qsbr)];
  auto* first = new (storage) reclaim::Qsbr;
  std::atomic<int> step{0};
  auto wait_for = [&](int s) {
    while (step.load() != s) std::this_thread::yield();
  };
  std::thread lagger([&] {
    first->ensure_participant();
    step.store(1);
    wait_for(2);
    std::launder(reinterpret_cast<reclaim::Qsbr*>(storage))
        ->ensure_participant();
    step.store(3);
    wait_for(4);
    std::launder(reinterpret_cast<reclaim::Qsbr*>(storage))->checkpoint();
    step.store(5);
  });
  wait_for(1);
  first->~Qsbr();
  auto* fresh = new (storage) reclaim::Qsbr;
  ASSERT_EQ(static_cast<void*>(fresh), static_cast<void*>(first));
  destroyed.store(0);
  fresh->defer_delete(new Counted);
  EXPECT_EQ(fresh->checkpoint(), 1u) << "the old domain's joiner gated";
  step.store(2);
  wait_for(3);
  fresh->defer_delete(new Counted);
  EXPECT_EQ(fresh->checkpoint(), 0u) << "reclaimed while a participant lagged";
  step.store(4);
  wait_for(5);
  EXPECT_EQ(fresh->checkpoint(), 1u);
  EXPECT_EQ(destroyed.load(), 2);
  lagger.join();
  fresh->~Qsbr();
}

// An exited thread's deferrals pass with its reader index: the next thread
// to take the index reclaims them at its first checkpoint.
TEST(Qsbr, NextOwnerOfAnExitedThreadsIndexReclaimsItsDeferrals) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  std::size_t exited_index = SIZE_MAX;
  std::thread([&] {
    exited_index = rcua::plat::reader_index();
    qsbr.defer_delete(new Counted);
    qsbr.defer_delete(new Counted);
    // exits without a checkpoint
  }).join();
  EXPECT_EQ(qsbr.pending_total(), 2u);
  std::size_t next_index = SIZE_MAX;
  std::size_t freed = 0;
  std::thread([&] {
    next_index = rcua::plat::reader_index();
    freed = qsbr.checkpoint();
  }).join();
  ASSERT_EQ(next_index, exited_index)
      << "the next thread takes the lowest free reader index";
  EXPECT_EQ(freed, 2u);
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(qsbr.pending_total(), 0u);
}

// The next owner of an exited participant's index neither inherits its
// stale observation nor gates a domain it never joined.
TEST(Qsbr, NextOwnerOfAnIndexDoesNotGateUntilItJoins) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  std::thread([&] { qsbr.ensure_participant(); }).join();  // joins, exits
  std::atomic<int> step{0};
  std::thread next([&] {
    (void)rcua::plat::reader_index();  // takes the exited thread's index
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    qsbr.ensure_participant();  // joins at the current state
    step.store(3);
    while (step.load() != 4) std::this_thread::yield();
  });
  while (step.load() != 1) std::this_thread::yield();
  qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 1u) << "a thread that never joined gated";
  step.store(2);
  while (step.load() != 3) std::this_thread::yield();
  qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 0u) << "a joined participant did not gate";
  step.store(4);
  next.join();
  EXPECT_EQ(qsbr.checkpoint(), 1u);
  EXPECT_EQ(destroyed.load(), 2);
}

// park(): observe the newest state, reclaim the own eligible deferrals,
// stop gating; unpark() observes the current epoch before gating again.
TEST(Qsbr, ParkReclaimsOwnEligibleDeferralsAndStopsGating) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  std::atomic<int> step{0};
  std::thread idler([&] {
    qsbr.defer_delete(new Counted);
    qsbr.park();  // sole participant: its deferral is eligible
    EXPECT_EQ(destroyed.load(), 1);
    EXPECT_EQ(qsbr.pending_on_this_thread(), 0u);
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    qsbr.unpark();
    step.store(3);
    while (step.load() != 4) std::this_thread::yield();
  });
  while (step.load() != 1) std::this_thread::yield();
  qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 1u) << "a parked thread gated";
  step.store(2);
  while (step.load() != 3) std::this_thread::yield();
  // Unparked at the current epoch: it does not lag what came before...
  qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 0u) << "an unparked participant did not gate";
  step.store(4);
  idler.join();
  EXPECT_EQ(qsbr.checkpoint(), 1u);
  EXPECT_EQ(destroyed.load(), 3);
}

TEST(Qsbr, ParkKeepsWhatOthersStillGate) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  PinnedPeer peer(qsbr);
  qsbr.defer_delete(new Counted);
  qsbr.park();
  EXPECT_EQ(destroyed.load(), 0) << "parking freed what a laggard gates";
  EXPECT_EQ(qsbr.pending_on_this_thread(), 1u);
  qsbr.unpark();
  peer.release(/*catch_up=*/true);
  EXPECT_EQ(qsbr.checkpoint(), 1u);
}

// park()/unpark() on a domain the thread never joined leave it out: the
// pool's idle workers park in Qsbr::global() whether or not they use it.
TEST(Qsbr, ParkAndUnparkDoNotJoinANonParticipant) {
  destroyed.store(0);
  reclaim::Qsbr qsbr;
  std::atomic<int> step{0};
  std::thread bystander([&] {
    qsbr.park();
    qsbr.unpark();
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
  });
  while (step.load() != 1) std::this_thread::yield();
  qsbr.defer_delete(new Counted);
  EXPECT_EQ(qsbr.checkpoint(), 1u);
  step.store(2);
  bystander.join();
}

// The checkpoint's per-thread charge counts the joined participants that
// are neither parked nor gone: here itself and one live peer, not the
// exited or the parked one.
TEST(Qsbr, CheckpointChargeCountsOnlyLiveParticipants) {
  reclaim::Qsbr qsbr;
  std::thread([&] { qsbr.ensure_participant(); }).join();  // exited
  std::atomic<int> step{0};
  std::thread parked([&] {
    qsbr.ensure_participant();
    qsbr.park();
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
  });
  while (step.load() != 1) std::this_thread::yield();
  PinnedPeer live(qsbr);
  qsbr.ensure_participant();

  sim::TaskClock clock;
  {
    sim::ClockScope scope(clock);
    qsbr.checkpoint();
  }
  const auto& m = sim::CostModel::get();
  EXPECT_EQ(clock.vtime_ns,
            static_cast<std::uint64_t>(m.atomic_load_ns +
                                       m.qsbr_checkpoint_per_thread_ns * 2));
  step.store(2);
  parked.join();
}

// Multi-threaded canary stress: every thread defers replaced payloads and
// checkpoints periodically; nobody may ever observe a dead payload.
TEST(QsbrStress, CanariesStayAliveUntilQuiescence) {
  reclaim::Qsbr qsbr;
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
