// Tests for the paper's TLS-free EBR (Algorithm 1), including the
// Lemma 2 overflow property with genuinely narrow epoch integers and
// multi-threaded no-use-after-free stress.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "reclaim/ebr.hpp"

namespace reclaim = rcua::reclaim;

namespace {

/// Payload with a liveness canary: reads assert the canary, the deleter
/// poisons it, so a reclamation racing a reader trips instantly.
struct Canary {
  static constexpr std::uint64_t kAlive = 0xA11CE5ED;
  static constexpr std::uint64_t kDead = 0xDEADDEAD;
  std::atomic<std::uint64_t> state{kAlive};
  std::uint64_t value = 0;

  ~Canary() { state.store(kDead, std::memory_order_relaxed); }
};

/// 100 reads, then one whose λ throws: every announcement is retracted.
template <typename E>
void expect_reads_balance() {
  E ebr;
  for (int i = 0; i < 100; ++i) ebr.read([] { return 0; });
  const auto throwing = []() -> int { throw std::runtime_error("fn"); };
  EXPECT_THROW(ebr.read(throwing), std::runtime_error);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
  EXPECT_EQ(ebr.stats().reads, 101u);
}

}  // namespace

TEST(Ebr, ReadReturnsLambdaResult) {
  reclaim::Ebr ebr;
  EXPECT_EQ(ebr.read([] { return 42; }), 42);
}

TEST(Ebr, ReadSupportsVoidLambda) {
  reclaim::Ebr ebr;
  int hits = 0;
  ebr.read([&] { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(Ebr, ReadReturnsReferences) {
  reclaim::Ebr ebr;
  int x = 7;
  int& ref = ebr.read([&]() -> int& { return x; });
  EXPECT_EQ(&ref, &x);
}

TEST(Ebr, CountersBalanceAfterReads) {
  expect_reads_balance<reclaim::Ebr>();
  expect_reads_balance<reclaim::LegacyEbr>();
}

TEST(Ebr, GuardRecordsOnCurrentParity) {
  reclaim::Ebr ebr;
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  {
    reclaim::Ebr::ReadGuard guard(ebr);
    EXPECT_EQ(ebr.readers_at(parity), 1u);
  }
  EXPECT_EQ(ebr.readers_at(parity), 0u);
}

TEST(Ebr, AdvanceReturnsPreviousEpoch) {
  reclaim::Ebr ebr;
  const auto e0 = ebr.epoch();
  EXPECT_EQ(ebr.advance_epoch(), e0);
  EXPECT_EQ(ebr.epoch(), e0 + 1);
  EXPECT_EQ(ebr.stats().epoch_advances, 1u);
}

TEST(Ebr, SynchronizeWithNoReadersReturnsImmediately) {
  reclaim::Ebr ebr;
  ebr.synchronize();
  ebr.synchronize();
  EXPECT_EQ(ebr.epoch(), 2u);
}

TEST(Ebr, WaitForReadersBlocksUntilGuardDrops) {
  reclaim::Ebr ebr;
  std::atomic<bool> reader_in{false};
  std::atomic<bool> reader_release{false};
  std::atomic<bool> writer_done{false};

  std::thread reader([&] {
    reclaim::Ebr::ReadGuard guard(ebr);
    reader_in.store(true);
    while (!reader_release.load()) std::this_thread::yield();
  });
  while (!reader_in.load()) std::this_thread::yield();

  std::thread writer([&] {
    const auto old_epoch = ebr.advance_epoch();
    ebr.wait_for_readers(old_epoch);
    writer_done.store(true);
  });

  // Give the writer a real chance to (incorrectly) slip past the reader.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(writer_done.load());

  reader_release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(Ebr, WriterDoesNotWaitForNewParityReaders) {
  reclaim::Ebr ebr;
  // Reader recorded *after* the epoch bump lands on the new parity; the
  // writer drains the old parity only (Lemma 3's third interval).
  const auto old_epoch = ebr.advance_epoch();
  reclaim::Ebr::ReadGuard guard(ebr);  // records under the new epoch
  ebr.wait_for_readers(old_epoch);     // must not deadlock
  SUCCEED();
}

// Lemma 2: two counters remain sufficient across epoch overflow, because
// +1 preserves parity even at wrap-around. Drive an 8-bit epoch through
// several full wraps with live readers.
TEST(EbrOverflow, ParityPreservedAcrossWraparound) {
  reclaim::BasicEbr<std::uint8_t> ebr(/*initial_epoch=*/250);
  for (int i = 0; i < 600; ++i) {  // > 2 full wraps of a uint8 epoch
    const std::uint8_t before = ebr.epoch();
    ebr.read([&] {
      // While inside the section, our parity counter must be nonzero.
      EXPECT_GE(ebr.readers_at(ebr.epoch() % 2) +
                    ebr.readers_at((ebr.epoch() + 1) % 2),
                1u);
      return 0;
    });
    ebr.synchronize();
    EXPECT_EQ(static_cast<std::uint8_t>(before + 1), ebr.epoch());
  }
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(EbrOverflow, ConcurrentReadersAcrossWraparound) {
  reclaim::BasicEbr<std::uint8_t> ebr(240);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ebr.read([&] { reads.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (int i = 0; i < 700; ++i) {
    ebr.synchronize();
    if (i % 64 == 0) std::this_thread::yield();
  }
  // On an oversubscribed host the writer can finish before any reader is
  // scheduled; wait for real read-side traffic before stopping.
  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

// The core reclamation property: a reader that linearized never observes
// a reclaimed snapshot. RCU_Write pattern with canary-checked payloads.
TEST(EbrStress, NoUseAfterFreeUnderConcurrentWrites) {
  reclaim::Ebr ebr;
  std::atomic<Canary*> snapshot{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};
  constexpr int kReaders = 4;
  // The writer starts only once every reader has completed a read, so its
  // rounds always race real read sections.
  std::latch all_read(kReaders);

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        ebr.read([&] {
          Canary* c = snapshot.load(std::memory_order_acquire);
          if (c->state.load(std::memory_order_relaxed) != Canary::kAlive) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        });
        if (std::exchange(first, false)) all_read.count_down();
      }
    });
  }
  all_read.wait();

  // Writer: copy-update-publish-drain-delete, 300 times.
  for (int i = 0; i < 300; ++i) {
    auto* fresh = new Canary;
    fresh->value = static_cast<std::uint64_t>(i);
    Canary* old = snapshot.exchange(fresh, std::memory_order_acq_rel);
    const auto epoch = ebr.advance_epoch();
    ebr.wait_for_readers(epoch);
    delete old;
    if (i % 16 == 0) std::this_thread::yield();
  }

  stop.store(true);
  for (auto& t : readers) t.join();
  delete snapshot.load();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(EbrSim, ReaderRmwChargesAreModeled) {
  rcua::sim::CostModelOverride save;
  auto& m = rcua::sim::CostModel::mutable_instance();
  m.rmw_transfer_ns = 500;
  m.atomic_rmw_ns = 5;
  m.local_cached_ns = 1;

  reclaim::Ebr ebr;
  rcua::sim::TaskClock clock;
  {
    rcua::sim::ClockScope scope(clock);
    ebr.read([] { return 0; });
  }
  // Owned layout: no other thread writes the slot, so nothing transfers
  // the line. The announce pays one uncontended RMW (5), the retract a
  // store to a line already cached (1).
  EXPECT_EQ(clock.vtime_ns, 6u);
}

TEST(EbrSim, LegacyLayoutChargesAlwaysContendedTransfers) {
  rcua::sim::CostModelOverride save;
  auto& m = rcua::sim::CostModel::mutable_instance();
  m.rmw_transfer_ns = 500;
  m.atomic_rmw_ns = 5;

  reclaim::LegacyEbr ebr;
  rcua::sim::TaskClock clock;
  {
    rcua::sim::ClockScope scope(clock);
    ebr.read([] { return 0; });
  }
  // The single shared EpochReaders line is modeled as always-contended:
  // the increment and the balancing decrement each cost one transfer.
  EXPECT_EQ(clock.vtime_ns, 1000u);
}
