// Unit tests for the grace-period watchdog layer: StallPolicy,
// plat::wait_until, StallMonitor, and the epoch-tagged OverflowRetireList.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "platform/backoff.hpp"
#include "platform/topology.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/stall_monitor.hpp"

namespace plat = rcua::plat;
namespace reclaim = rcua::reclaim;

namespace {

void flag_deleter(void* p) {
  static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_seq_cst);
}

}  // namespace

TEST(StallPolicy, DefaultIsBlocking) {
  const reclaim::StallPolicy policy;
  EXPECT_EQ(policy.deadline_ns, 0u);
}

TEST(WaitUntil, ImmediateSuccess) {
  EXPECT_TRUE(plat::wait_until("test", [] { return true; }, 1000));
}

TEST(WaitUntil, TimesOutOnStuckPredicate) {
  // A 0.5 ms deadline.
  EXPECT_FALSE(plat::wait_until("test", [] { return false; }, 500 * 1000));
}

TEST(WaitUntil, NoDeadlineWaitsOutTheStall) {
  // 10 ms outlasts the spin and yield phases, so the wait parks.
  std::atomic<bool> ready{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ready.store(true);
  });
  EXPECT_TRUE(plat::wait_until("test", [&] { return ready.load(); }));
  releaser.join();
}

TEST(WaitUntil, DeadlineSurvivesLatePredicateFlip) {
  std::atomic<bool> ready{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ready.store(true);
  });
  // A generous 2 s deadline.
  const auto flipped = [&] { return ready.load(); };
  EXPECT_TRUE(plat::wait_until("test", flipped, 2ull * 1000 * 1000 * 1000));
  releaser.join();
}

TEST(StallMonitor, RecordStallCountsAndForwards) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);

  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEbrReader;
  diag.locale = 3;
  diag.epoch = 17;
  diag.slot = 2;
  diag.thread_id = 4321;
  diag.stuck_readers = 1;
  diag.waited_ns = 1000000;
  monitor.record_stall(diag);

  EXPECT_EQ(monitor.stalls(), 1u);
  const auto records = captured.records();
  ASSERT_EQ(records.size(), 1u);
  // Structured-field asserts: the sink receives the diagnostic verbatim,
  // no string parsing required.
  EXPECT_EQ(records[0].kind, reclaim::StallDiagnostic::Kind::kEbrReader);
  EXPECT_EQ(records[0].locale, 3u);
  EXPECT_EQ(records[0].epoch, 17u);
  EXPECT_EQ(records[0].slot, 2u);
  EXPECT_EQ(records[0].thread_id, 4321u);
  EXPECT_EQ(records[0].stuck_readers, 1u);
  EXPECT_EQ(records[0].waited_ns, 1000000u);
  EXPECT_EQ(monitor.last().epoch, 17u);
  EXPECT_EQ(monitor.last().locale, 3u);
}

TEST(StallMonitor, NullSinkSilencesButStillCounts) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.set_sink(nullptr);
  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEraReservation;
  diag.epoch = 5;
  monitor.record_stall(diag);
  EXPECT_EQ(monitor.stalls(), 1u);
  EXPECT_EQ(monitor.last().epoch, 5u);
}

TEST(StallMonitor, CaptureSinkSupportsClearAndSize) {
  reclaim::CaptureStallSink sink;
  reclaim::StallDiagnostic diag;
  sink.on_stall(diag);
  sink.on_stall(diag);
  EXPECT_EQ(sink.size(), 2u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(StallMonitor, DescribeNamesSlotThreadEpochAndDuration) {
  reclaim::StallDiagnostic diag;
  diag.kind = reclaim::StallDiagnostic::Kind::kEbrReader;
  diag.locale = 1;
  diag.epoch = 42;
  diag.slot = 5;
  diag.thread_id = 31337;
  diag.stuck_readers = 2;
  diag.waited_ns = 7000;
  const std::string s = diag.describe();
  EXPECT_NE(s.find("slot 5"), std::string::npos) << s;
  EXPECT_NE(s.find("thread 31337"), std::string::npos) << s;
  EXPECT_NE(s.find("42"), std::string::npos) << s;
  EXPECT_NE(s.find("7000"), std::string::npos) << s;
}

TEST(StallMonitor, BudgetAccounting) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/100);
  EXPECT_FALSE(monitor.would_exceed(100));
  monitor.note_overflow(60);
  EXPECT_EQ(monitor.overflow_bytes(), 60u);
  EXPECT_TRUE(monitor.would_exceed(41));
  EXPECT_FALSE(monitor.would_exceed(40));
  monitor.note_overflow(40);
  EXPECT_EQ(monitor.peak_overflow_bytes(), 100u);
  monitor.note_flushed(100, 2);
  EXPECT_EQ(monitor.overflow_bytes(), 0u);
  EXPECT_EQ(monitor.flushed_objects(), 2u);
  // The peak survives the flush (it is the memory-bound evidence).
  EXPECT_EQ(monitor.peak_overflow_bytes(), 100u);
}

TEST(StallMonitor, UnlimitedBudgetNeverExceeds) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/0);
  monitor.note_overflow(SIZE_MAX / 2);
  EXPECT_FALSE(monitor.would_exceed(SIZE_MAX / 2));
}

TEST(StallMonitor, EscalateRecordsAndContinues) {
  reclaim::StallMonitor monitor(/*budget_bytes=*/1);
  reclaim::CaptureStallSink captured;
  monitor.set_sink(&captured);
  reclaim::StallDiagnostic diag;
  diag.overflow_bytes = 10;
  diag.budget_bytes = 1;
  monitor.escalate(diag);  // the caller blocks; the monitor only records
  EXPECT_EQ(monitor.escalations(), 1u);
  const auto records = captured.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind,
            reclaim::StallDiagnostic::Kind::kOverflowBudget);
  // escalate() stamps the monitor's own budget and live byte count into
  // the diagnostic before forwarding it.
  EXPECT_EQ(records[0].budget_bytes, 1u);
}

TEST(OverflowRetireList, PushAccountsBytesAndObjects) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};
  list.push(&flag_deleter, &freed, 128, /*epoch=*/4);
  EXPECT_EQ(list.pending_objects(), 1u);
  EXPECT_EQ(list.pending_bytes(), 128u);
  EXPECT_FALSE(freed.load());
  const auto r = list.free_all();
  EXPECT_EQ(r.objects, 1u);
  EXPECT_EQ(r.bytes, 128u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(list.pending_objects(), 0u);
}

TEST(OverflowRetireList, FlushRequiresBothColumnsObservedEmpty) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed_even{false};
  std::atomic<bool> freed_odd{false};
  list.push(&flag_deleter, &freed_even, 10, /*epoch=*/2);  // parity 0
  list.push(&flag_deleter, &freed_odd, 20, /*epoch=*/3);   // parity 1
  // Only parity 0 observed empty: an entry's own parity draining is NOT
  // enough — a stalled reader on the other column may still hold it.
  const auto r =
      list.flush_ready([](std::size_t parity) { return parity == 0; });
  EXPECT_EQ(r.objects, 0u);
  EXPECT_FALSE(freed_even.load());
  EXPECT_FALSE(freed_odd.load());
  EXPECT_EQ(list.pending_objects(), 2u);
  EXPECT_EQ(list.pending_bytes(), 30u);
  // Parity 1 observed empty on a later flush: combined with the banked
  // parity-0 observation, both entries are now reclaimable.
  const auto r2 =
      list.flush_ready([](std::size_t parity) { return parity == 1; });
  EXPECT_EQ(r2.objects, 2u);
  EXPECT_EQ(r2.bytes, 30u);
  EXPECT_TRUE(freed_even.load());
  EXPECT_TRUE(freed_odd.load());
  EXPECT_EQ(list.pending_bytes(), 0u);
}

TEST(OverflowRetireList, FlushFreesInOneCallWhenBothColumnsAreEmpty) {
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};
  list.push(&flag_deleter, &freed, 8, /*epoch=*/5);
  const auto r = list.flush_ready([](std::size_t) { return true; });
  EXPECT_EQ(r.objects, 1u);
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(list.pending_objects(), 0u);
}

TEST(OverflowRetireList, FlushAgainstLiveEbrColumn) {
  // End-to-end with a real reclaimer: while a reader occupies either
  // column, deferred entries survive flushes; once it leaves, both
  // columns are observed empty and the entry is reclaimed.
  reclaim::Ebr ebr;
  reclaim::OverflowRetireList list;
  std::atomic<bool> freed{false};

  auto guard = std::make_unique<reclaim::Ebr::ReadGuard>(ebr);  // parity 0
  const auto old_epoch = ebr.advance_epoch();                   // drain 0
  list.push(&flag_deleter, &freed, 64,
            static_cast<std::uint64_t>(old_epoch));
  auto drained = [&](std::size_t parity) {
    return ebr.readers_at(parity) == 0;
  };
  EXPECT_EQ(list.flush_ready(drained).objects, 0u);
  EXPECT_FALSE(freed.load());

  guard.reset();  // reader evacuates
  EXPECT_EQ(list.flush_ready(drained).objects, 1u);
  EXPECT_TRUE(freed.load());
}

TEST(Ebr, DeadlineDrainTimesOutAndNamesTheReaderSlot) {
  reclaim::Ebr ebr;
  reclaim::Ebr::ReadGuard guard(ebr);  // on this thread's own slot

  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult r =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/200 * 1000);  // 0.2 ms
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.stuck_readers, 1u);
  EXPECT_EQ(r.stuck_slot, rcua::plat::reader_index());
  EXPECT_EQ(r.stuck_thread,
            rcua::plat::reader_thread_id(rcua::plat::reader_index()));
  EXPECT_GT(r.waited_ns, 0u);
}

TEST(Ebr, DeadlineDrainDrainsWhenClear) {
  reclaim::Ebr ebr;
  const auto old_epoch = ebr.advance_epoch();
  const reclaim::DrainResult r =
      ebr.wait_for_readers(old_epoch, /*deadline_ns=*/1000);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.stuck_slot, SIZE_MAX);
}
