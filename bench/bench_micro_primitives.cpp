// Micro-benchmarks (google-benchmark, real wall-clock): per-operation
// cost of the synchronization primitives on THIS host. These are the
// measured inputs behind several cost-model constants and a regression
// guard for the fast paths (an accidental seq_cst or extra indirection
// shows up here immediately).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "platform/rng.hpp"
#include "platform/spinlock.hpp"
#include "platform/topology.hpp"
#include "rcua.hpp"
#include "service/sharded_collection.hpp"

namespace {

int max_bench_threads() {
  return std::max(2, 2 * static_cast<int>(rcua::plat::hardware_threads()));
}

void BM_EbrReadSide(benchmark::State& state) {
  rcua::reclaim::Ebr ebr;
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ebr.read([&]() -> std::uint64_t& { return x; }));
  }
}
BENCHMARK(BM_EbrReadSide);

// The owned-vs-legacy A/B, on one SHARED reclaimer instance so the
// reader contention is real. At 1 thread the owned section is one locked
// RMW (the announce's exchange) where the legacy one has two; as threads
// grow the legacy layout serializes on its single counter line while
// each owned slot stays with its thread.
rcua::reclaim::Ebr g_shared_owned_ebr;
rcua::reclaim::LegacyEbr g_shared_legacy_ebr;

void BM_EbrReadSharedOwned(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_shared_owned_ebr.read([] { return 0; }));
  }
}
BENCHMARK(BM_EbrReadSharedOwned)->ThreadRange(1, max_bench_threads());

void BM_EbrReadSharedLegacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_shared_legacy_ebr.read([] { return 0; }));
  }
}
BENCHMARK(BM_EbrReadSharedLegacy)->ThreadRange(1, max_bench_threads());

void BM_EbrSynchronize(benchmark::State& state) {
  rcua::reclaim::Ebr ebr;
  for (auto _ : state) ebr.synchronize();
}
BENCHMARK(BM_EbrSynchronize);

void BM_QsbrCheckpoint(benchmark::State& state) {
  rcua::reclaim::Qsbr qsbr;
  for (auto _ : state) benchmark::DoNotOptimize(qsbr.checkpoint());
}
BENCHMARK(BM_QsbrCheckpoint);

void BM_QsbrDeferAndReclaim(benchmark::State& state) {
  rcua::reclaim::Qsbr qsbr;
  for (auto _ : state) {
    qsbr.defer_delete(new int(1));
    benchmark::DoNotOptimize(qsbr.checkpoint());
  }
}
BENCHMARK(BM_QsbrDeferAndReclaim);

void BM_HazardGuard(benchmark::State& state) {
  rcua::reclaim::HazardDomain dom;
  std::atomic<int*> src{new int(7)};
  for (auto _ : state) {
    rcua::reclaim::HazardDomain::Guard<int> guard(dom, src);
    benchmark::DoNotOptimize(*guard);
  }
  delete src.load();
}
BENCHMARK(BM_HazardGuard);

void BM_Spinlock(benchmark::State& state) {
  rcua::plat::Spinlock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_Spinlock);

void BM_Xoshiro(benchmark::State& state) {
  rcua::plat::Xoshiro256 rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(1 << 20));
}
BENCHMARK(BM_Xoshiro);

void BM_RcuArrayIndexQsbr(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, rcua::QsbrPolicy> arr(cluster, 1 << 16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.index((i++ * 7919) & 0xFFFF));
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK(BM_RcuArrayIndexQsbr);

void BM_RcuArrayIndexEbr(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, rcua::EbrPolicy> arr(cluster, 1 << 16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.index((i++ * 7919) & 0xFFFF));
  }
}
BENCHMARK(BM_RcuArrayIndexEbr);

// The per-layer ladder of one element op, 1 thread, 1 locale, 64 Ki
// elements: value read/write on the array, then the sharded read that
// adds block-cyclic routing, then QSBR's per-op participation check.
constexpr std::size_t kLadderElems = std::size_t{1} << 16;

template <typename Policy>
void BM_RcuArrayRead(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(cluster, kLadderElems);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.read((i++ * 7919) & (kLadderElems - 1)));
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayRead, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayRead, rcua::EbrPolicy);

template <typename Policy>
void BM_RcuArrayWrite(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(cluster, kLadderElems);
  std::uint64_t i = 0;
  for (auto _ : state) {
    arr.write((i * 7919) & (kLadderElems - 1), i);
    benchmark::ClobberMemory();
    ++i;
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayWrite, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayWrite, rcua::EbrPolicy);

template <typename Policy>
void BM_ShardedCollectionRead(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::svc::ShardedCollection<std::uint64_t, Policy> coll(cluster,
                                                           kLadderElems);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll.read((i++ * 7919) & (kLadderElems - 1)));
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_ShardedCollectionRead, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_ShardedCollectionRead, rcua::EbrPolicy);

// bulk_read: one pinned section per 1024-element window (one block), so
// items_per_second is the per-element cost of the bulk engine.
constexpr std::size_t kBulkWindow = 1024;

template <typename Policy>
void BM_RcuArrayBulkRead(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(cluster, kLadderElems);
  std::vector<std::uint64_t> out(kBulkWindow);
  std::size_t first = 0;
  for (auto _ : state) {
    arr.bulk_read(first, kBulkWindow, out.data());
    benchmark::DoNotOptimize(out.data());
    first = (first + kBulkWindow) & (kLadderElems - 1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBulkWindow));
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayBulkRead, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayBulkRead, rcua::EbrPolicy);

// Cached read: 2 locales with the block cache on; every read targets a
// block homed on the other locale, which after the first pass is a hit
// in this locale's cache.
template <typename Policy>
void BM_RcuArrayCachedRead(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(
      cluster, kLadderElems, {.cache_capacity_bytes = std::size_t{1} << 20});
  std::vector<std::size_t> remote;
  for (std::size_t i = 0; i < kLadderElems; i += 7) {
    if (arr.block_owner(i) != cluster.here()) remote.push_back(i);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.read(remote[k]));
    if (++k == remote.size()) k = 0;
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayCachedRead, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayCachedRead, rcua::EbrPolicy);

// DRAM-resident rows: the value ops over 512 MiB (perfbench
// elastic-grow's array size) at random indices, so nearly every op
// misses the caches. A section that ends with a locked RMW waits here
// for the element's miss; one that ends with a plain store does not.
constexpr std::size_t kDramElems = std::size_t{1} << 26;

std::size_t dram_index(std::uint64_t i) {
  return static_cast<std::size_t>(rcua::plat::mix64(i)) & (kDramElems - 1);
}

template <typename Policy>
void BM_RcuArrayReadDram(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(cluster, kDramElems);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(arr.read(dram_index(i++)));
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayReadDram, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayReadDram, rcua::EbrPolicy);

template <typename Policy>
void BM_RcuArrayWriteDram(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::RCUArray<std::uint64_t, Policy> arr(cluster, kDramElems);
  std::uint64_t i = 0;
  for (auto _ : state) {
    arr.write(dram_index(i), i);
    benchmark::ClobberMemory();
    ++i;
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}
BENCHMARK_TEMPLATE(BM_RcuArrayWriteDram, rcua::QsbrPolicy);
BENCHMARK_TEMPLATE(BM_RcuArrayWriteDram, rcua::EbrPolicy);

void BM_QsbrEnsureParticipant(benchmark::State& state) {
  rcua::reclaim::Qsbr& qsbr = rcua::reclaim::Qsbr::global();
  for (auto _ : state) {
    qsbr.ensure_participant();
    benchmark::ClobberMemory();  // the TLS check must not leave the loop
  }
}
BENCHMARK(BM_QsbrEnsureParticipant);

void BM_UnsafeArrayIndex(benchmark::State& state) {
  rcua::rt::Cluster cluster({.num_locales = 1, .workers_per_locale = 1});
  rcua::baseline::UnsafeArray<std::uint64_t> arr(cluster, 1 << 16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.index((i++ * 7919) & 0xFFFF));
  }
}
BENCHMARK(BM_UnsafeArrayIndex);

void BM_RcuCellRead(benchmark::State& state) {
  rcua::RcuCell<std::uint64_t> cell(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.read([](const std::uint64_t& v) { return v; }));
  }
}
BENCHMARK(BM_RcuCellRead);

void BM_VirtualResourceAcquire(benchmark::State& state) {
  rcua::sim::VirtualResource res;
  std::uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t = res.acquire_at(t, 3));
  }
}
BENCHMARK(BM_VirtualResourceAcquire);

}  // namespace

BENCHMARK_MAIN();
