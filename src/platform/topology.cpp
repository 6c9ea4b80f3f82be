#include "platform/topology.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rcua::plat {

std::uint32_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<std::uint32_t>(n);
}

namespace {

/// Reader indices in use and free. Immortal: detached threads may still
/// return their index after static destruction.
struct ReaderIndexPool {
  std::mutex mu;
  std::vector<std::uint32_t> free;  // min-heap: lowest index first
  std::atomic<std::size_t> high_water{0};
  std::atomic<std::uint64_t> thread_ids[kMaxReaders] = {};
  /// Bumped under `mu` when an index is taken and when it is returned.
  std::atomic<std::uint64_t> generations[kMaxReaders] = {};
};

ReaderIndexPool& reader_pool() {
  static auto* pool = new ReaderIndexPool;
  return *pool;
}

/// Returns the thread's reader index to the pool when the thread exits.
/// Every section the thread opened has ended by then, so each bank's
/// slot for the index holds no open section, and the pool mutex orders
/// the thread's final stores to its slots before the next owner's loads.
struct ReaderIndexOwner {
  bool armed = false;
  ~ReaderIndexOwner() {
    const std::uint32_t v = detail::tl_reader_index_plus1;
    if (!armed || v == 0) return;
    detail::tl_reader_index_plus1 = 0;
    ReaderIndexPool& pool = reader_pool();
    std::lock_guard<std::mutex> guard(pool.mu);
    pool.generations[v - 1].fetch_add(1, std::memory_order_release);
    pool.free.push_back(v - 1);
    std::push_heap(pool.free.begin(), pool.free.end(), std::greater<>());
  }
};
thread_local ReaderIndexOwner tl_reader_owner;

}  // namespace

std::size_t detail::take_reader_index() {
  ReaderIndexPool& pool = reader_pool();
  std::size_t index;
  {
    std::lock_guard<std::mutex> guard(pool.mu);
    if (!pool.free.empty()) {
      std::pop_heap(pool.free.begin(), pool.free.end(), std::greater<>());
      index = pool.free.back();
      pool.free.pop_back();
    } else {
      index = pool.high_water.load(std::memory_order_relaxed);
      if (index >= kMaxReaders) {
        std::fprintf(stderr, "rcua: more than %zu live reader threads\n",
                     kMaxReaders);
        std::abort();
      }
      pool.high_water.store(index + 1, std::memory_order_seq_cst);
    }
    pool.thread_ids[index].store(
        static_cast<std::uint64_t>(::syscall(SYS_gettid)),
        std::memory_order_relaxed);
    tl_reader_generation =
        pool.generations[index].fetch_add(1, std::memory_order_release) + 1;
  }
  // A thread that reads again from a later thread_local destructor finds
  // the owner gone and keeps its new index for good.
  tl_reader_owner.armed = true;
  tl_reader_index_plus1 = static_cast<std::uint32_t>(index + 1);
  return index;
}

std::uint64_t reader_generation(std::size_t index) noexcept {
  if (index >= kMaxReaders) return 0;
  return reader_pool().generations[index].load(std::memory_order_acquire);
}

std::size_t reader_index_high_water() noexcept {
  return reader_pool().high_water.load(std::memory_order_acquire);
}

std::uint64_t reader_thread_id(std::size_t index) noexcept {
  if (index >= kMaxReaders) return 0;
  return reader_pool().thread_ids[index].load(std::memory_order_relaxed);
}

}  // namespace rcua::plat
