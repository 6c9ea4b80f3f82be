// Fault-injection tests: drive the algorithms through their narrow race
// windows *deterministically* using the EBR read-side hooks, instead of
// hoping a scheduler interleaving finds them.

#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/stall_monitor.hpp"

namespace reclaim = rcua::reclaim;

namespace {

// Hook state shared with the static injection functions.
std::atomic<int> fire_count{0};
std::atomic<int> fire_limit{0};

/// Phase-0 injection: the writer advances the epoch after the reader
/// loaded it but BEFORE the increment — the reader's increment lands on
/// the stale parity, verification (line 13) catches it, the reader
/// retries.
void advance_before_increment(reclaim::Ebr& ebr, int phase) {
  if (phase != 0) return;
  if (fire_count.fetch_add(1) < fire_limit.load()) {
    ebr.advance_epoch();
  }
}

/// Phase-1 injection: the epoch advances AFTER the increment — the
/// increment is on the (now old) parity the writer will wait for, so the
/// verification STILL catches the change and the reader retries; safety
/// would hold either way (Lemma 3), liveness is what we check.
void advance_after_increment(reclaim::Ebr& ebr, int phase) {
  if (phase != 1) return;
  if (fire_count.fetch_add(1) < fire_limit.load()) {
    ebr.advance_epoch();
  }
}

}  // namespace

TEST(FaultInjection, EpochAdvanceBeforeIncrementForcesRetry) {
  reclaim::Ebr ebr;
  fire_count.store(0);
  fire_limit.store(1);
  ebr.test_read_hook = &advance_before_increment;

  const int result = ebr.read([] { return 42; });
  EXPECT_EQ(result, 42);
  // The phase-0 hook fires once per announce attempt: exactly one
  // injected advance forces exactly one retry, so two attempts ran.
  EXPECT_EQ(fire_count.load(), 2);
  EXPECT_EQ(ebr.stats().read_retries, 1u);
  // The aborted record was undone: both counters drained.
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(FaultInjection, EpochAdvanceAfterIncrementForcesRetry) {
  reclaim::Ebr ebr;
  fire_count.store(0);
  fire_limit.store(1);
  ebr.test_read_hook = &advance_after_increment;

  const int result = ebr.read([] { return 7; });
  EXPECT_EQ(result, 7);
  EXPECT_GE(fire_count.load(), 2);  // at least one retried attempt
  EXPECT_GE(ebr.stats().read_retries, 1u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(FaultInjection, ReaderSurvivesManyConsecutiveRetries) {
  reclaim::Ebr ebr;
  fire_count.store(0);
  fire_limit.store(25);  // 25 consecutive epoch advances under the reader
  ebr.test_read_hook = &advance_before_increment;

  const int result = ebr.read([] { return 1; });
  EXPECT_EQ(result, 1);
  EXPECT_GE(fire_count.load(), 26);  // 25 injected advances -> 25 retries
  EXPECT_GE(ebr.stats().read_retries, 25u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(FaultInjection, RetriedReaderIsInvisibleToTheWriter) {
  // The paper's exact hazard (§III-A): a reader that recorded on a stale
  // parity must not be relied upon by the writer that advanced the epoch;
  // the undo (line 17) must leave that writer's drain unaffected.
  reclaim::Ebr ebr;
  fire_count.store(0);
  fire_limit.store(1);
  ebr.test_read_hook = &advance_before_increment;

  ebr.read([] { return 0; });
  // After the forced race, a writer draining the pre-advance parity must
  // complete immediately: the aborted record was withdrawn.
  const auto old_epoch = static_cast<std::uint64_t>(ebr.epoch() - 1);
  ebr.wait_for_readers(old_epoch);  // must not hang
  SUCCEED();
}

TEST(FaultInjection, OverflowPlusInjectedRacesStayBalanced) {
  // Combine the two failure modes the paper proves out separately:
  // 8-bit epoch wrap-around AND forced read-side races.
  reclaim::BasicEbr<std::uint8_t> ebr(250);
  std::atomic<int> local_fires{0};
  // The narrow-epoch type needs its own hook type; use a capture-free
  // lambda plus static state.
  static std::atomic<int>* fires;
  fires = &local_fires;
  ebr.test_read_hook = [](reclaim::BasicEbr<std::uint8_t>& e, int phase) {
    if (phase == 0 && fires->fetch_add(1) % 3 == 0) e.advance_epoch();
  };

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ebr.read([] { return 9; }), 9);
    ebr.synchronize();
  }
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
  // Every third phase-0 fire injected an advance and forced a retried
  // attempt, so the hook fired more often than the 100 requested reads.
  EXPECT_GT(local_fires.load(), 100);
  EXPECT_GT(ebr.stats().read_retries, 0u);
}

// -- QSBR checkpoint/park hooks (the EBR-style windows, Algorithm 2) ----

namespace {
std::atomic<int> qsbr_phase_hits[5];

void count_qsbr_phase(rcua::reclaim::Qsbr&, int phase) {
  qsbr_phase_hits[phase].fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TEST(FaultInjection, QsbrHookFiresAtCheckpointAndParkWindows) {
  for (auto& h : qsbr_phase_hits) h.store(0);
  reclaim::Qsbr qsbr;
  qsbr.test_hook = &count_qsbr_phase;

  qsbr.checkpoint();
  EXPECT_EQ(qsbr_phase_hits[reclaim::Qsbr::kHookCheckpointEpochRead].load(),
            1);
  EXPECT_EQ(qsbr_phase_hits[reclaim::Qsbr::kHookCheckpointObserved].load(),
            1);
  qsbr.park();
  qsbr.unpark();
  EXPECT_EQ(qsbr_phase_hits[reclaim::Qsbr::kHookPark].load(), 1);
  EXPECT_EQ(qsbr_phase_hits[reclaim::Qsbr::kHookParkPopped].load(), 1);
  EXPECT_EQ(qsbr_phase_hits[reclaim::Qsbr::kHookUnpark].load(), 1);
}

TEST(FaultInjection, QsbrHookCanMoveTheEpochInsideTheCheckpointWindow) {
  // Drive the checkpoint's race window for real: between the StateEpoch
  // read (line 4) and the observation store (line 5) another "thread"
  // bumps the epoch by deferring. The checkpoint must store the *stale*
  // observation (that is what it read), and the deferred node must NOT
  // be reclaimed by this checkpoint — the observer's promise predates
  // the defer.
  static std::atomic<int> fired;
  static std::atomic<bool> node_freed;
  fired.store(0);
  node_freed.store(false);
  reclaim::Qsbr qsbr;
  qsbr.test_hook = [](reclaim::Qsbr& q, int phase) {
    if (phase != reclaim::Qsbr::kHookCheckpointEpochRead) return;
    if (fired.fetch_add(1) != 0) return;  // inject only once
    q.defer_fn([](void*) { node_freed.store(true); }, nullptr);
  };
  qsbr.checkpoint();
  // The injected defer ran on this same thread, so its own safe epoch
  // was observed by the defer itself; but the checkpoint's min-scan used
  // the pre-defer observation — the node survives this checkpoint.
  EXPECT_FALSE(node_freed.load());
  qsbr.checkpoint();  // a fresh checkpoint observes the new state
  EXPECT_TRUE(node_freed.load());
}

TEST(FaultInjection, ParkWhileAnnouncedStallsTheDrainAndIsDiagnosed) {
  // The "park-while-announced" stall window: a thread parks (goes idle
  // in a QSBR domain) while still ANNOUNCED in an EBR read-side section.
  // Parking must not erase the announcement — the drain has to keep
  // waiting (safety) — and the deadline-bounded drain must name the
  // stuck reader's slot and thread for the watchdog.
  reclaim::Ebr ebr;
  reclaim::Qsbr qsbr;

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<std::size_t> stuck_index{SIZE_MAX};
  std::atomic<std::uint64_t> stuck_tid{0};
  std::thread stuck([&] {
    stuck_index.store(rcua::plat::reader_index());
    stuck_tid.store(static_cast<std::uint64_t>(::syscall(SYS_gettid)));
    qsbr.ensure_participant();
    reclaim::Ebr::ReadGuard guard(ebr);  // announced on its own slot
    qsbr.park();                         // ... then parks, still announced
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
    qsbr.unpark();
  });
  while (!parked.load()) std::this_thread::yield();

  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult drain =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/500 * 1000);  // 0.5 ms
  EXPECT_FALSE(drain.drained) << "parking must not fake an EBR retraction";
  EXPECT_EQ(drain.stuck_slot, stuck_index.load());
  EXPECT_EQ(drain.stuck_thread, stuck_tid.load());
  EXPECT_EQ(drain.stuck_readers, 1u);

  release.store(true);
  stuck.join();
  ebr.wait_for_readers(old_epoch);  // drains now that the guard dropped
  SUCCEED();
}

TEST(FaultInjection, GuardAlsoRetriesUnderInjectedRace) {
  // ReadGuard uses the same record/verify protocol; inject through the
  // read() path on a sibling thread to race the guard's construction.
  reclaim::Ebr ebr;
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ebr.advance_epoch();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    reclaim::Ebr::ReadGuard guard(ebr);
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}
