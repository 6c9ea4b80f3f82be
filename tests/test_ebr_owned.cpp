// Tests specific to the thread-owned reader bank: reader indices (one
// per live thread, reused after the thread exits), one slot per reader,
// the drain's summation over every index handed out, nested sections,
// Lemma 2 with concurrent readers, and the stats aggregation across
// slots when compiled in.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"

namespace reclaim = rcua::reclaim;
namespace plat = rcua::plat;

namespace {

/// Threads that each take a reader index and then wait, holding it,
/// until released.
class IndexHolders {
 public:
  ~IndexHolders() { release(); }

  /// Starts one more holder and returns its reader index.
  std::size_t add() {
    std::atomic<std::size_t> index{SIZE_MAX};
    threads_.emplace_back([this, &index] {
      index.store(plat::reader_index());
      while (!release_.load()) std::this_thread::yield();
    });
    while (index.load() == SIZE_MAX) std::this_thread::yield();
    return index.load();
  }

  void release() {
    release_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::atomic<bool> release_{false};
  std::vector<std::thread> threads_;
};

/// A reader thread that holds one section open until released.
class HeldReader {
 public:
  explicit HeldReader(reclaim::Ebr& ebr) {
    thread_ = std::thread([this, &ebr] {
      reclaim::Ebr::ReadGuard guard(ebr);
      index_.store(plat::reader_index());
      while (!release_.load()) std::this_thread::yield();
    });
    while (index_.load() == SIZE_MAX) std::this_thread::yield();
  }
  ~HeldReader() { leave(); }

  [[nodiscard]] std::size_t index() const { return index_.load(); }

  void leave() {
    release_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<std::size_t> index_{SIZE_MAX};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

}  // namespace

TEST(ReaderIndex, StableWithinAThreadAndBelowTheHighWater) {
  const std::size_t mine = plat::reader_index();
  EXPECT_EQ(plat::reader_index(), mine);
  EXPECT_LT(mine, plat::reader_index_high_water());
  EXPECT_NE(plat::reader_thread_id(mine), 0u);
}

TEST(ReaderIndex, SequentialThreadsRaiseTheHighWaterByAtMostOne) {
  reclaim::Ebr ebr;
  (void)plat::reader_index();
  const std::size_t before = plat::reader_index_high_water();
  for (int i = 0; i < 64; ++i) {
    std::thread t([&] { ebr.read([] { return 0; }); });
    t.join();
  }
  EXPECT_LE(plat::reader_index_high_water(), before + 1);
}

TEST(OwnedEbr, ConcurrentReadersGetDistinctSlots) {
  reclaim::Ebr ebr;
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  std::vector<std::unique_ptr<HeldReader>> readers;
  std::set<std::size_t> indices;
  for (int r = 0; r < 6; ++r) {
    readers.push_back(std::make_unique<HeldReader>(ebr));
    indices.insert(readers.back()->index());
  }
  EXPECT_EQ(indices.size(), readers.size());
  for (const auto& r : readers) {
    EXPECT_EQ(ebr.readers_in_slot(r->index(), parity), 1u)
        << "slot " << r->index();
  }
  EXPECT_EQ(ebr.readers_at(parity), readers.size());
  readers.clear();
  EXPECT_EQ(ebr.readers_at(parity), 0u);
}

TEST(OwnedEbr, AnnouncementLandsOnTheCallersSlot) {
  reclaim::Ebr ebr;
  const std::size_t mine = plat::reader_index();
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  {
    reclaim::Ebr::ReadGuard guard(ebr);
    EXPECT_EQ(ebr.readers_in_slot(mine, parity), 1u);
    EXPECT_EQ(ebr.readers_in_slot(mine, parity + 1), 0u);
    EXPECT_EQ(ebr.readers_at(parity), 1u);
  }
  EXPECT_EQ(ebr.readers_in_slot(mine, parity), 0u);
}

TEST(OwnedEbr, ReaderOnTheHighestIndexBlocksTheDrain) {
  // Occupy every free index until a holder takes the newest one, so
  // the reader below lands on the highest index handed out: the drain
  // must scan all the way up to the high-water.
  reclaim::Ebr ebr;
  IndexHolders holders;
  while (holders.add() + 1 != plat::reader_index_high_water()) {
  }
  HeldReader reader(ebr);
  ASSERT_EQ(reader.index() + 1, plat::reader_index_high_water());

  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult timed =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/200 * 1000);
  EXPECT_FALSE(timed.drained);
  EXPECT_EQ(timed.stuck_slot, reader.index());
  EXPECT_EQ(timed.stuck_readers, 1u);

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    ebr.wait_for_readers(old_epoch);
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(writer_done.load());

  reader.leave();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(OwnedEbr, NewParityReaderDoesNotBlockTheDrain) {
  reclaim::Ebr ebr;
  const auto old_epoch = ebr.advance_epoch();
  HeldReader reader(ebr);  // records under the new parity
  const reclaim::DrainResult r = ebr.wait_for_readers(old_epoch);
  EXPECT_TRUE(r.drained);
}

TEST(OwnedEbr, NestedSectionsOnOneInstance) {
  reclaim::Ebr ebr;
  const std::size_t mine = plat::reader_index();
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  std::uint64_t old_epoch = 0;
  {
    reclaim::Ebr::ReadGuard outer(ebr);
    {
      reclaim::Ebr::ReadGuard inner(ebr);
      EXPECT_EQ(ebr.readers_in_slot(mine, parity), 2u);
    }
    EXPECT_EQ(ebr.readers_in_slot(mine, parity), 1u);
    old_epoch = ebr.advance_epoch();
    EXPECT_FALSE(ebr.wait_for_readers(old_epoch, 100 * 1000).drained)
        << "the outer section still holds the old parity";
  }
  EXPECT_EQ(ebr.readers_at(parity), 0u);
  EXPECT_TRUE(ebr.wait_for_readers(old_epoch).drained);
}

TEST(OwnedEbr, NestedSectionsOnTwoInstances) {
  reclaim::Ebr a;
  reclaim::Ebr b;
  const std::size_t mine = plat::reader_index();
  {
    reclaim::Ebr::ReadGuard on_a(a);
    const auto b_epoch = b.advance_epoch();
    {
      reclaim::Ebr::ReadGuard on_b(b);  // new parity on b
      EXPECT_EQ(a.readers_in_slot(mine, 0), 1u);
      EXPECT_EQ(b.readers_in_slot(mine, 1), 1u);
      EXPECT_EQ(b.readers_in_slot(mine, 0), 0u);
      // b's old parity is empty although this thread is inside a's
      // section: the two banks count independently.
      EXPECT_TRUE(b.wait_for_readers(b_epoch).drained);
    }
    const auto a_epoch = a.advance_epoch();
    EXPECT_FALSE(a.wait_for_readers(a_epoch, 100 * 1000).drained);
    EXPECT_EQ(b.readers_at(1), 0u);
  }
  EXPECT_EQ(a.readers_at(0), 0u);
}

TEST(OwnedEbr, ReturnedIndexComesBackWithZeroedSlots) {
  // A thread exits after its sections on two parities; the next thread
  // takes the index back and must find both of its counters at zero.
  reclaim::Ebr ebr;
  std::size_t first = SIZE_MAX;
  std::thread([&] {
    first = plat::reader_index();
    ebr.read([] { return 0; });
    ebr.synchronize();
    ebr.read([] { return 0; });
  }).join();
  std::size_t second = SIZE_MAX;
  std::thread([&] {
    second = plat::reader_index();
    EXPECT_EQ(ebr.readers_in_slot(second, 0), 0u);
    EXPECT_EQ(ebr.readers_in_slot(second, 1), 0u);
    reclaim::Ebr::ReadGuard guard(ebr);
    EXPECT_EQ(ebr.readers_at(ebr.epoch() % 2), 1u);
  }).join();
  EXPECT_EQ(second, first) << "the lowest free index is handed out first";
}

TEST(OwnedEbr, LegacyReadersShareOneSlot) {
  reclaim::LegacyEbr ebr;
  const auto parity = static_cast<std::size_t>(ebr.epoch() % 2);
  std::atomic<bool> in{false};
  std::atomic<bool> release{false};
  std::thread other([&] {
    reclaim::LegacyEbr::ReadGuard guard(ebr);
    in.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!in.load()) std::this_thread::yield();
  {
    reclaim::LegacyEbr::ReadGuard guard(ebr);
    EXPECT_EQ(ebr.readers_in_slot(0, parity), 2u);
  }
  release.store(true);
  other.join();
  EXPECT_EQ(ebr.readers_in_slot(0, parity), 0u);
}

// Lemma 2 with owned slots: parity survives the 8-bit epoch wrap while
// four threads read, each on its own slot, and no reader ever sees a
// snapshot the writer already reclaimed.
TEST(OwnedEbrOverflow, Lemma2AcrossAnEightBitWrapWithFourReaders) {
  struct Canary {
    std::atomic<std::uint32_t> alive{1};
    ~Canary() { alive.store(0); }
  };
  reclaim::BasicEbr<std::uint8_t> ebr(/*initial_epoch=*/250);
  std::atomic<Canary*> snapshot{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ebr.read([&] {
          Canary* c = snapshot.load(std::memory_order_acquire);
          if (c->alive.load(std::memory_order_relaxed) != 1) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  while (reads.load() == 0) std::this_thread::yield();

  for (int i = 0; i < 600; ++i) {  // > 2 full wraps of a uint8 epoch
    const std::uint8_t before = ebr.epoch();
    Canary* old = snapshot.exchange(new Canary, std::memory_order_acq_rel);
    ebr.synchronize();
    delete old;
    EXPECT_EQ(static_cast<std::uint8_t>(before + 1), ebr.epoch());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  delete snapshot.load();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}

TEST(OwnedEbr, StatsAggregateAcrossSlots) {
  reclaim::Ebr ebr;
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 5; ++i) ebr.read([] { return 0; });
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(ebr.stats().reads, 20u);
  ebr.synchronize();
  EXPECT_EQ(ebr.stats().epoch_advances, 1u);
}

TEST(OwnedEbrStress, ConcurrentReadersOnOwnedSlotsNoUseAfterFree) {
  struct Canary {
    std::atomic<std::uint32_t> alive{1};
    ~Canary() { alive.store(0); }
  };

  reclaim::Ebr ebr;
  std::atomic<Canary*> snapshot{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ebr.read([&] {
          Canary* c = snapshot.load(std::memory_order_acquire);
          if (c->alive.load(std::memory_order_relaxed) != 1) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }

  for (int i = 0; i < 200; ++i) {
    auto* fresh = new Canary;
    Canary* old = snapshot.exchange(fresh, std::memory_order_acq_rel);
    ebr.synchronize();
    delete old;
  }

  while (reads.load() == 0) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  delete snapshot.load();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(ebr.readers_at(0), 0u);
  EXPECT_EQ(ebr.readers_at(1), 0u);
}
