// Tests for the destination-aggregated bulk operations
// (RCUArray::bulk_read/bulk_write/for_each_block, rt::Aggregator):
// elementwise agreement across block/locale straddles and degenerate
// ranges, the O(blocks-touched) communication bound the aggregation
// exists for, agreement under a concurrent resize_add, and the
// DistVector bulk fill path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "containers/dist_vector.hpp"
#include "core/rcu_array.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/cluster.hpp"

namespace rt = rcua::rt;
using rcua::EbrPolicy;
using rcua::QsbrPolicy;
using rcua::RCUArray;

namespace {

void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }

constexpr std::uint64_t pattern(std::size_t i) {
  return (static_cast<std::uint64_t>(i) * 2654435761ULL) ^ 0x9e37u;
}

/// Elementwise-agreement sweep shared by both policies: ranges that
/// straddle block and locale boundaries, single elements, whole array,
/// empty and degenerate ranges, and the bounds check.
template <typename Policy>
void run_agreement_sweep() {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  RCUArray<std::uint64_t, Policy> arr(cluster, 200, {.block_size = 16});
  const std::size_t cap = arr.capacity();  // 208: 13 blocks of 16
  ASSERT_GE(cap, 200u);
  for (std::size_t i = 0; i < cap; ++i) arr.write(i, pattern(i));

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, cap},       // everything
      {0, 1},         // first element
      {cap - 1, 1},   // last element
      {15, 2},        // straddles the first block boundary
      {16, 16},       // exactly one (remote) block
      {5, 40},        // several blocks, unaligned on both ends
      {47, 113},      // locale-straddling middle chunk
      {0, 0},         // empty
      {cap, 0},       // empty at the end: count==0 never throws
      {cap + 7, 0},   // empty past the end: count==0 never throws
  };
  for (const auto& [first, count] : ranges) {
    // bulk_read vs elementwise read()
    const std::vector<std::uint64_t> got = arr.bulk_read(first, count);
    ASSERT_EQ(got.size(), count);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(got[k], arr.read(first + k))
          << "first=" << first << " count=" << count << " k=" << k;
    }
    // ...and at the degenerate buffer capacity (flush per span).
    std::vector<std::uint64_t> got1(count);
    arr.bulk_read(first, count, got1.data(), {.buffer_capacity = 1});
    ASSERT_EQ(got1, got) << "first=" << first << " count=" << count;
  }

  // bulk_write vs elementwise read-back, rotating the pattern so stale
  // values fail loudly.
  for (const auto& [first, count] : ranges) {
    std::vector<std::uint64_t> vals(count);
    for (std::size_t k = 0; k < count; ++k) {
      vals[k] = pattern(first + k) + 1;
    }
    arr.bulk_write(first, std::span<const std::uint64_t>(vals));
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(arr.read(first + k), pattern(first + k) + 1)
          << "first=" << first << " count=" << count << " k=" << k;
    }
    // restore
    for (std::size_t k = 0; k < count; ++k) {
      arr.write(first + k, pattern(first + k));
    }
  }

  // Out-of-range is rejected up front (nothing copied, nothing flushed).
  EXPECT_THROW((void)arr.bulk_read(cap - 1, 2), std::out_of_range);
  EXPECT_THROW((void)arr.bulk_read(cap, 1), std::out_of_range);
  std::uint64_t one = 0;
  EXPECT_THROW(arr.bulk_write(cap, std::span<const std::uint64_t>(&one, 1)),
               std::out_of_range);
}

}  // namespace

TEST(BulkOps, AgreementSweepEbr) { run_agreement_sweep<EbrPolicy>(); }

TEST(BulkOps, AgreementSweepQsbr) {
  run_agreement_sweep<QsbrPolicy>();
  drain_qsbr();
}

TEST(BulkOps, ForEachBlockPartitionsTheRange) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  RCUArray<int, EbrPolicy> arr(cluster, 96, {.block_size = 32});
  const std::size_t first = 7;
  const std::size_t count = 80;  // crosses blocks 0->1->2, unaligned
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  arr.for_each_block(
      first, count,
      [&](std::size_t base, int*, std::size_t len) {
        spans.emplace_back(base, len);
      });
  // Sorted by base (drain order is not index order), the spans must
  // exactly tile [first, first+count) without crossing a block boundary.
  std::sort(spans.begin(), spans.end());
  std::size_t expect = first;
  for (const auto& [base, len] : spans) {
    EXPECT_EQ(base, expect);
    ASSERT_GT(len, 0u);
    EXPECT_EQ(base / 32, (base + len - 1) / 32)
        << "span crosses a block boundary";
    expect = base + len;
  }
  EXPECT_EQ(expect, first + count);
}

TEST(BulkOps, CommVolumeIsPerBlockNotPerElement) {
  // The acceptance bound: a bulk_read of N mostly-remote elements
  // records O(blocks touched) communication operations — one execute
  // per destination flush — where the elementwise loop records one GET
  // per remote element.
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 2});
  // Cache pinned off: the elementwise baseline below asserts one GET
  // per remote element, which the nightly RCUA_CACHE_CAPACITY_BYTES
  // sweep would otherwise turn into O(blocks) fills.
  RCUArray<std::uint64_t, EbrPolicy> arr(
      cluster, 16 * 64, {.block_size = 64, .cache_capacity_bytes = 0});
  const std::size_t n = arr.capacity();
  ASSERT_EQ(n, 16u * 64u);  // block i owned by locale i % 4
  for (std::size_t i = 0; i < n; ++i) arr.write(i, pattern(i));
  rt::CommLayer& comm = cluster.comm();

  // Elementwise baseline: one GET per remote element.
  comm.reset();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(arr.read(i), pattern(i));
  }
  const std::uint64_t elementwise_gets = comm.total_gets();
  EXPECT_EQ(elementwise_gets, 12u * 64u);  // 12 remote blocks of 64

  // Aggregated: zero GETs/PUTs, one execute per destination flush. With
  // the default capacity each remote locale's 4x64 elements fit one
  // buffer, so exactly 3 executes (one per remote locale).
  comm.reset();
  const std::vector<std::uint64_t> got = arr.bulk_read(0, n);
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_puts(), 0u);
  EXPECT_EQ(comm.total_executes(), 3u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], pattern(i));

  // Degenerate buffer capacity: one execute per remote SPAN — still
  // O(blocks touched), never O(elements).
  comm.reset();
  std::vector<std::uint64_t> got1(n);
  arr.bulk_read(0, n, got1.data(), {.buffer_capacity = 1});
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_executes(), 12u);  // the 12 remote blocks
  EXPECT_LE(comm.total_executes(), arr.num_blocks());
  EXPECT_LT(comm.total_executes(), elementwise_gets);

  // The write side has the same shape (executes, not PUTs).
  comm.reset();
  std::vector<std::uint64_t> vals(n);
  for (std::size_t i = 0; i < n; ++i) vals[i] = pattern(i) + 7;
  arr.bulk_write(0, std::span<const std::uint64_t>(vals));
  EXPECT_EQ(comm.total_puts(), 0u);
  EXPECT_EQ(comm.total_gets(), 0u);
  EXPECT_EQ(comm.total_executes(), 3u);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(arr.read(i), pattern(i) + 7);
}

TEST(BulkOps, AggregatorStatsAndLocalFastPath) {
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rt::Aggregator agg(cluster, {.capacity = 4});
  int local_ran = 0;
  int remote_ran = 0;
  agg.push(0, 1, [&] { ++local_ran; });  // launcher is locale 0: inline
  EXPECT_EQ(local_ran, 1);
  for (int k = 0; k < 3; ++k) {
    agg.push(1, 1, [&] { ++remote_ran; });
  }
  EXPECT_EQ(remote_ran, 0);  // below capacity: still buffered
  EXPECT_EQ(agg.pending_weight(1), 3u);
  agg.push(1, 1, [&] { ++remote_ran; });  // reaches capacity 4
  EXPECT_EQ(agg.pending_weight(1), 0u);   // auto-flush ISSUED the buffer
  EXPECT_EQ(remote_ran, 0);  // async mode: delivery happens at drain
  agg.drain();
  EXPECT_EQ(remote_ran, 4);  // the drain delivered all four exactly once
  EXPECT_EQ(agg.stats().ops, 5u);
  EXPECT_EQ(agg.stats().local_ops, 1u);
  EXPECT_EQ(agg.stats().flushes, 1u);
  EXPECT_EQ(agg.stats().auto_flushes, 1u);
  // An abandoned buffer is dropped, not executed (exception-unwind
  // safety; see the class comment).
  {
    rt::Aggregator dropped(cluster, {.capacity = 100});
    dropped.push(1, 1, [&] { ++remote_ran; });
  }
  EXPECT_EQ(remote_ran, 4);
  // Sync mode still delivers at the flush itself.
  rt::Aggregator sync_agg(cluster, {.capacity = 4, .async = false});
  int sync_ran = 0;
  sync_agg.push(1, 2, [&] { ++sync_ran; });
  sync_agg.flush_all();
  EXPECT_EQ(sync_ran, 1);
}

TEST(BulkOps, AggregatorDtorCancelsInflightAsyncCompletions) {
  // Satellite fix: the destructor's interaction with in-flight ASYNC
  // flushes is defined as cancellation — a pending completion is never
  // delivered into a destroyed caller buffer, and the async counters
  // balance (issued == completed + cancelled) so nothing leaks either.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rt::CommLayer& comm = cluster.comm();
  comm.reset();
  int ran = 0;
  {
    rt::Aggregator agg(cluster, {.capacity = 100, .async = true,
                                 .window = 8});
    agg.push(1, 1, [&] { ++ran; });
    agg.push(1, 1, [&] { ++ran; });
    agg.flush_all();  // ISSUES one async execute; completion in flight
    ASSERT_NE(agg.async_comm(), nullptr);
    EXPECT_EQ(agg.async_comm()->total_inflight(), 1u);
    EXPECT_EQ(ran, 0);
    // Destroyed with the completion still pending — e.g. an exception
    // unwinding out of the read-side section.
  }
  EXPECT_EQ(ran, 0);  // never delivered into the destroyed frame
  EXPECT_EQ(comm.total_async_issued(), 1u);
  EXPECT_EQ(comm.total_async_completed(), 0u);
  EXPECT_EQ(comm.total_async_cancelled(), 1u);
  EXPECT_EQ(comm.total_async_issued(),
            comm.total_async_completed() + comm.total_async_cancelled());

  // The awaited path still delivers: flush + drain inside the scope.
  {
    rt::Aggregator agg(cluster, {.capacity = 100, .async = true,
                                 .window = 8});
    agg.push(1, 1, [&] { ++ran; });
    agg.flush_all();
    agg.drain();
    EXPECT_EQ(ran, 1);
  }
  EXPECT_EQ(ran, 1);
}

TEST(BulkOps, AgreementUnderConcurrentResizeAdd) {
  // Property: while a writer thread grows the array, bulk reads of the
  // stable prefix always return exactly what was written there, and a
  // bulk write to the prefix lands exactly elementwise. The pinned
  // snapshot plus recycled blocks (Lemma 6) make this exact, not
  // approximate.
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  RCUArray<std::uint64_t, EbrPolicy> arr(cluster, 4 * 32,
                                         {.block_size = 32});
  const std::size_t prefix = arr.capacity();
  for (std::size_t i = 0; i < prefix; ++i) arr.write(i, pattern(i));

  std::thread grower([&] {
    for (int r = 0; r < 24; ++r) {
      arr.resize_add(32);
    }
  });
  for (int round = 0; round < 200; ++round) {
    const std::vector<std::uint64_t> got = arr.bulk_read(0, prefix);
    for (std::size_t i = 0; i < prefix; ++i) {
      ASSERT_EQ(got[i], pattern(i)) << "round " << round << " i=" << i;
    }
  }
  // Writes through one pinned snapshot stay visible across the resizes.
  std::vector<std::uint64_t> vals(prefix);
  for (std::size_t i = 0; i < prefix; ++i) vals[i] = pattern(i) ^ 0xffu;
  arr.bulk_write(0, std::span<const std::uint64_t>(vals),
                 {.buffer_capacity = 8});
  grower.join();
  for (std::size_t i = 0; i < prefix; ++i) {
    ASSERT_EQ(arr.read(i), pattern(i) ^ 0xffu) << i;
  }
  EXPECT_EQ(arr.capacity(), 4u * 32u + 24u * 32u);
}

TEST(BulkOps, DistVectorBulkFill) {
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  rcua::cont::DistVector<std::uint64_t> vec(cluster, {.block_size = 16});
  EXPECT_EQ(vec.push_back(7u), 0u);
  std::vector<std::uint64_t> batch(150);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i] = pattern(i);
  const std::size_t first =
      vec.push_back_bulk(std::span<const std::uint64_t>(batch));
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(vec.size(), 151u);
  EXPECT_EQ(vec.push_back(9u), 151u);
  const std::vector<std::uint64_t> read =
      vec.read_range(first, batch.size());
  EXPECT_EQ(read, batch);
  EXPECT_THROW((void)vec.read_range(100, 100), std::out_of_range);
  drain_qsbr();
}
