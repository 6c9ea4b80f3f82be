// Micro-benchmarks (google-benchmark, real wall-clock): per-operation
// cost of the synchronization primitives on THIS host. These are the
// measured inputs behind several cost-model constants and a regression
// guard for the fast paths (an accidental seq_cst or extra indirection
// shows up here immediately).

#include <benchmark/benchmark.h>

#include <algorithm>

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

// The striped-vs-legacy A/B this PR is about, on one SHARED reclaimer
// instance so the reader RMW contention is real. At 1 thread the two
// layouts should be near-identical (both are one uncontended RMW pair);
// as threads grow the legacy layout serializes on its single counter
// line while the striped bank spreads announcements across slots.
rcua::reclaim::Ebr g_shared_striped_ebr;
rcua::reclaim::LegacyEbr g_shared_legacy_ebr;

void BM_EbrReadSharedStriped(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_shared_striped_ebr.read([] { return 0; }));
  }
}
BENCHMARK(BM_EbrReadSharedStriped)->ThreadRange(1, max_bench_threads());

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
  rcua::rt::ThreadRegistry registry;
  rcua::reclaim::Qsbr qsbr(registry);
  for (auto _ : state) benchmark::DoNotOptimize(qsbr.checkpoint());
}
BENCHMARK(BM_QsbrCheckpoint);

void BM_QsbrDeferAndReclaim(benchmark::State& state) {
  rcua::rt::ThreadRegistry registry;
  rcua::reclaim::Qsbr qsbr(registry);
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

void BM_TicketLock(benchmark::State& state) {
  rcua::plat::TicketLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_TicketLock);

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
