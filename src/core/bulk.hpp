#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "reclaim/policy.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/cluster.hpp"
#include "runtime/read_through.hpp"
#include "sim/cost_model.hpp"
#include "sim/task_clock.hpp"
#include "testing/sched_point.hpp"

namespace rcua {

/// Tuning for the destination-aggregated bulk operations (bulk_visit).
struct BulkOptions {
  /// Element-ops buffered per destination locale before the aggregator
  /// auto-flushes (rt::Aggregator::Options::capacity). 1 degenerates to
  /// one remote execution per *span* (still never per element).
  std::size_t buffer_capacity = 1024;
  /// The span callback writes elements: spans are charged as writes, and
  /// bump their block's write generation (DESIGN.md §11). bulk_write sets
  /// it and bulk_read clears it; for_each_block callers choose.
  bool mutate = false;
  /// Pipeline the aggregator's flushes through the async comm layer
  /// (rt::AsyncComm): remote executions overlap instead of serializing,
  /// and their completions are drained inside the same read-side section
  /// (DESIGN.md §10). false = the synchronous flush model. Results and
  /// comm counters are identical either way.
  bool async = true;
  /// Per-destination in-flight window for async mode; 0 defers to the
  /// RCUA_COMM_WINDOW environment variable (default 32).
  std::size_t window = 0;
};

/// The bulk engine behind RCUArray's bulk_read/bulk_write/for_each_block
/// (destination-aggregated copies after Dewan & Jenkins, arXiv
/// 2112.00068), run by the calling locale against its own copy of the
/// array: its `reclaimer`, its `spine` pointer and its block `cache`.
///
/// Pins the spine ONCE, partitions [first, first+count) into maximal
/// per-block spans, and runs `span_fn(base_index, T* data, len)` on each
/// exactly once, in the aggregator's drain order, not index order. Spans
/// of blocks the calling locale owns run inline; remote spans are pushed
/// into a destination aggregator keyed by the owning locale, one remote
/// execution per flush. A read of a remote block goes through the block
/// cache when it is enabled (rt::ReadThrough); a write (`opts.mutate`)
/// bumps the block's generation after its stores land, which invalidates
/// every cached copy.
///
/// The whole partition-and-drain runs under a single read section, and
/// the aggregator is drained BEFORE that section closes: the span-ops
/// capture raw block pointers, and the pin is exactly what keeps a
/// concurrent resize_remove's grace period from freeing the blocks under
/// them (DESIGN.md §9). The `bulk_flush_after_release` and
/// `async_drain_after_release` mutations move the flush or the drain
/// past the section close; the sched harness proves both lose
/// (tests/test_sched_bulk.cpp, tests/test_sched_async.cpp).
///
/// Throws std::out_of_range, before visiting anything, when the range
/// exceeds the pinned snapshot's capacity. `span_fn` must not re-enter
/// the array (the read section is open) and must not retain `data` past
/// its own invocation.
template <typename T, typename Policy, typename SpanFn>
void bulk_visit(rt::Cluster& cluster, Policy& reclaimer,
                std::atomic<Snapshot<T>*>& spine, rt::BlockCache& cache,
                std::size_t first, std::size_t count, const BulkOptions& opts,
                SpanFn&& span_fn) {
  if (count == 0) return;
  const bool is_write = opts.mutate;
  const auto& m = sim::CostModel::get();
  const std::uint32_t here = cluster.here();
  rt::Aggregator agg(cluster,
                     rt::Aggregator::Options{.capacity = opts.buffer_capacity,
                                             .async = opts.async,
                                             .window = opts.window});
  {
    reclaim::ReadSection<Policy> section(reclaimer);
    Snapshot<T>* s = section.pin(spine);
    sim::charge(m.atomic_load_ns);
    RCUA_SCHED_POINT("rcua.bulk.pinned");
    const std::size_t end = first + count;
    if (end < first || end > s->capacity()) {
      throw std::out_of_range(
          "RCUArray::bulk: range [" + std::to_string(first) + ", " +
          std::to_string(first) + "+" + std::to_string(count) +
          ") exceeds capacity " + std::to_string(s->capacity()));
    }
    const std::size_t block_size = s->block(0)->capacity();
    const bool use_cache = cache.enabled() && !is_write;
    const bool bump_gens = cache.enabled() && is_write;
    rt::ReadThrough<Block<T>> cached(cluster, cache, s->version(),
                                     opts.window);
    // Spans that missed, served once their fills complete. Each block
    // appears in at most one span, so no per-block dedup is needed.
    struct Missed {
      typename rt::ReadThrough<Block<T>>::Fill fill;
      std::size_t base, off, len;
    };
    std::vector<Missed> missed;
    const double copy_ns = m.bulk_copy_ns_per_elem;
    for (std::size_t i = first; i < end;) {
      const std::size_t bidx = i / block_size;
      const std::size_t off = i % block_size;
      const std::size_t len = std::min(block_size - off, end - i);
      const std::size_t base = i;
      i += len;
      Block<T>* b = s->block(bidx);
      const std::uint32_t owner = b->owner();
      if (use_cache && owner != here) {
        if (auto hit = cached.lookup(bidx, *b, len)) {
          // Served inline from the node-local copy. The const_cast is
          // sound because is_write is false: span_fn only reads.
          span_fn(base, const_cast<T*>(hit.get()) + off, len);
        } else {
          missed.push_back({cached.fill(bidx, *b), base, off, len});
        }
        continue;
      }
      // Everything the deferred op needs, captured by VALUE: the op must
      // not chase the spine, which this call's pin does not outlive.
      T* data = b->data() + off;
      const std::uint64_t bid = b->id();
      agg.push(owner, len, [=, &span_fn]() {
        sim::touch_block(bid, owner != here, is_write);
        sim::charge(copy_ns * static_cast<double>(len));
        span_fn(base, data, len);
        // Write-through coherence (DESIGN.md §11): the stores above
        // landed, so the bump invalidates every cached copy of the block.
        if (bump_gens) b->bump_generation();
      });
    }
    if (!RCUA_SCHED_MUT(bulk_flush_after_release)) {
      // Flush AND drain while the snapshot is still pinned. In async
      // mode the flush only issues the remote executions; drain() runs
      // their completions against the pinned blocks, so it must land
      // inside the section too (the §10 completion-drain rule).
      agg.flush_all();
      if (!RCUA_SCHED_MUT(async_drain_after_release)) {
        agg.drain();
      }
    }
    // Fills always complete INSIDE the section, unconditionally: the
    // mutations above model aggregator bugs, and each fill copies out of
    // a pinned block.
    for (Missed& f : missed) {
      const auto copy = cached.complete(std::move(f.fill), f.len);
      span_fn(f.base, const_cast<T*>(copy.get()) + f.off, f.len);
    }
  }
  RCUA_SCHED_POINT("rcua.bulk.released");
  if (RCUA_SCHED_MUT(bulk_flush_after_release)) {
    // MUTATION (sched harness only): the buffered ops run after the read
    // section closed — a concurrent resize_remove may have freed the
    // blocks they point into.
    agg.flush_all();
    agg.drain();
  } else if (RCUA_SCHED_MUT(async_drain_after_release)) {
    // MUTATION (sched harness only): the flushes were ISSUED inside the
    // section, but their completions land only now — the async
    // reopening of the same use-after-reclaim window (DESIGN.md §10).
    agg.drain();
  }
}

}  // namespace rcua
