// Tests for RcuCell — the decoupled TLS-free EBR cell (the paper's named
// future-work artifact).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rcu_cell.hpp"

using rcua::RcuCell;

TEST(RcuCell, LoadInitialValue) {
  RcuCell<int> cell(5);
  EXPECT_EQ(cell.load(), 5);
}

TEST(RcuCell, DefaultConstructsValue) {
  RcuCell<std::string> cell;
  EXPECT_EQ(cell.load(), "");
}

TEST(RcuCell, UpdateAppliesMutation) {
  RcuCell<int> cell(1);
  cell.update([](int& v) { v += 41; });
  EXPECT_EQ(cell.load(), 42);
}

TEST(RcuCell, StoreReplaces) {
  RcuCell<std::string> cell("a");
  cell.store("b");
  EXPECT_EQ(cell.load(), "b");
}

TEST(RcuCell, ReadPassesConstReference) {
  RcuCell<std::vector<int>> cell(std::vector<int>{1, 2, 3});
  const int sum = cell.read([](const std::vector<int>& v) {
    int s = 0;
    for (int x : v) s += x;
    return s;
  });
  EXPECT_EQ(sum, 6);
}

TEST(RcuCell, ThrowingReadEndsItsSection) {
  // A leaked announcement would make the next update's drain wait forever.
  RcuCell<int> cell(1);
  const auto throwing = [](const int&) -> int {
    throw std::runtime_error("fn");
  };
  EXPECT_THROW(cell.read(throwing), std::runtime_error);
  ASSERT_EQ(cell.ebr().readers_at(0) + cell.ebr().readers_at(1), 0u);
  cell.store(2);
  EXPECT_EQ(cell.load(), 2);
}

TEST(RcuCell, UpdatesAdvanceEpoch) {
  RcuCell<int> cell(0);
  const auto e0 = cell.ebr().epoch();
  cell.update([](int& v) { ++v; });
  cell.update([](int& v) { ++v; });
  EXPECT_EQ(cell.ebr().epoch(), e0 + 2);
}

TEST(RcuCell, ConcurrentReadersSeeConsistentVersions) {
  // The value is a pair encoded so that any torn/mixed version is
  // detectable: (x, 1000 - x) must always sum to 1000.
  struct Pair {
    int a = 0;
    int b = 1000;
  };
  RcuCell<Pair> cell(Pair{});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        cell.read([&](const Pair& p) {
          if (p.a + p.b != 1000) bad.fetch_add(1);
        });
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 1; i <= 300; ++i) {
    cell.update([i](Pair& p) {
      p.a = i;
      p.b = 1000 - i;
    });
  }
  while (reads.load() < 500) std::this_thread::yield();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(cell.load().a, 300);
}

TEST(RcuCell, ConcurrentWritersSerialize) {
  RcuCell<std::uint64_t> cell(0);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        cell.update([](std::uint64_t& v) { ++v; });
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(cell.load(), 2000u);
}
