#pragma once

// Unified metrics registry (DESIGN.md §12).
//
// The paper's claims are all about invisible time — grace-period waits,
// epoch lag, remote-op latency — so the instrumentation that measures
// them is always compiled in and must cost near nothing when nobody is
// looking. The registry holds three metric kinds under one naming
// scheme (`rcua.<subsystem>.<metric>[_<unit>]`):
//
//  * Counter   — monotonically increasing, sharded over cache-line
//                padded cells (stripe = locale for comm metrics, thread
//                hash otherwise). The hot path is ONE relaxed fetch_add
//                on a padded cell — exactly what the old ad-hoc
//                CommStats atomics cost. `value()` sums (or maxes, for
//                high-water counters) the cells on read.
//  * Gauge     — a single padded cell with set / add / update_max.
//  * Histogram — fixed log2 buckets (bucket b holds values with
//                bit_width == b), relaxed adds; percentile estimates
//                resolve to the bucket lower bound.
//
// Lookup by name takes a lock and is NOT for hot paths: call sites
// resolve their handle once (member reference or function-local static)
// and hammer the returned object. Handles stay valid for the registry's
// lifetime — metrics are never erased.
//
// Two registries exist by convention: `Registry::global()` for
// process-wide reclamation/health metrics, and one instance owned by
// each rt::CommLayer so concurrently-live clusters never mix counts and
// `CommLayer::reset()` stays cluster-local.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/align.hpp"
#include "platform/spinlock.hpp"
#include "platform/topology.hpp"

namespace rcua::obs {

/// How a striped Counter folds its cells on read.
enum class Agg : int {
  kSum = 0,  ///< cells are partial sums (the default)
  kMax = 1,  ///< cells are high-water marks (e.g. per-locale in-flight)
};

/// Striped monotonic counter. Writers pick a cell — by explicit stripe
/// (exact per-locale attribution) or by thread hash — and do one relaxed
/// RMW on it; readers fold the cells.
class Counter {
 public:
  Counter(std::string name, std::size_t stripes, Agg agg);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n` on the calling thread's hash-selected cell.
  void add(std::uint64_t n = 1) noexcept {
    cells_[plat::stripe_index(stripes_)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Adds `n` on cell `stripe` (mod the stripe count). Use when the
  /// stripe has meaning (locale id) so `at()` reads back exact values.
  void add_at(std::size_t stripe, std::uint64_t n = 1) noexcept {
    cells_[stripe & mask_].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Raises cell `stripe` to at least `v` (kMax counters).
  void raise_at(std::size_t stripe, std::uint64_t v) noexcept {
    auto& cell = cells_[stripe & mask_].value;
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (cur < v && !cell.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t at(std::size_t stripe) const noexcept {
    return cells_[stripe & mask_].value.load(std::memory_order_relaxed);
  }

  /// Snapshot-on-read aggregate: sum (kSum) or max (kMax) of the cells.
  [[nodiscard]] std::uint64_t value() const noexcept;

  void reset() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  using Cell = plat::CacheAligned<std::atomic<std::uint64_t>>;

  std::string name_;
  std::size_t stripes_;  // power of two
  std::size_t mask_;
  Agg agg_;
  std::unique_ptr<Cell[]> cells_;
};

/// Single-cell instantaneous value with a relaxed hot path.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::uint64_t v) noexcept {
    value_.value.store(v, std::memory_order_relaxed);
  }
  void add(std::uint64_t n = 1) noexcept {
    value_.value.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::uint64_t n = 1) noexcept {
    value_.value.fetch_sub(n, std::memory_order_relaxed);
  }
  /// Raises the gauge to at least `v` (high-water semantics).
  void update_max(std::uint64_t v) noexcept {
    std::uint64_t cur = value_.value.load(std::memory_order_relaxed);
    while (cur < v && !value_.value.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.value.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  plat::CacheAligned<std::atomic<std::uint64_t>> value_{0ULL};
};

/// Fixed-bucket log-scale histogram: bucket b counts values whose
/// bit_width is b (bucket 0 holds exactly the value 0), so the bucket
/// lower bound is 1 << (b - 1). 65 buckets cover the whole uint64 range
/// with no allocation and no configuration; `record` is one relaxed RMW
/// on the bucket plus two on count/sum.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Smallest value the bucket admits (0 for bucket 0).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower_bound(
      std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
  }

  /// Lower bound of the bucket containing the q-quantile (q in [0, 1])
  /// of a snapshot of the counts; 0 when empty. A log-bucket estimate —
  /// exact percentiles for the bench gate come from raw samples, this is
  /// the cheap always-on view.
  [[nodiscard]] std::uint64_t percentile_lower_bound(double q) const noexcept;

  void reset() noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Find-or-create registry of named metrics. Handles returned by
/// counter()/gauge()/histogram() remain valid and hot-path-safe for the
/// registry's lifetime; the name lookup itself takes a spinlock and
/// belongs in setup code, not per-op paths.
class Registry {
 public:
  /// `default_stripes` sizes counters created without an explicit stripe
  /// count; 0 means hardware threads rounded to a power of two.
  explicit Registry(std::size_t default_stripes = 0);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry (reclamation + health metrics).
  static Registry& global();

  /// Find-or-create. `stripes` of 0 uses the registry default; if the
  /// counter already exists its original stripe count and aggregation
  /// win (callers agree by naming convention).
  Counter& counter(std::string_view name, std::size_t stripes = 0,
                   Agg agg = Agg::kSum);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// One metric's folded value at snapshot time.
  struct Snapshot {
    enum class Kind : int { kCounter = 0, kGauge = 1, kHistogram = 2 };
    std::string name;
    Kind kind = Kind::kCounter;
    /// Counter aggregate / gauge value / histogram count.
    std::uint64_t value = 0;
    /// Histogram only: sum of recorded values.
    std::uint64_t sum = 0;
    /// Histogram only: non-empty (bucket_index, count) pairs ascending.
    std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
  };

  /// Point-in-time aggregation of every metric, sorted by name. Each
  /// metric is read atomically per cell; the collection is not a global
  /// atomic cut (concurrent increments may land between reads), which is
  /// the documented snapshot-on-read semantics.
  [[nodiscard]] std::vector<Snapshot> snapshot() const;

  /// Zeroes every metric (counters, gauges, histogram buckets).
  void reset();

 private:
  std::size_t default_stripes_;
  mutable plat::Spinlock mu_;
  // std::map keeps deterministic name order for snapshot(); unique_ptr
  // keeps handles stable across rehash/insert.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Machine-readable `prefix key=value ...` line builder — THE one
/// formatting path for bench_stat / comm_stat / obs_stat emission, so
/// every bench feeds scripts/run_benchmarks.py through the same code
/// instead of bespoke printf blocks.
class StatLine {
 public:
  explicit StatLine(const char* prefix) : line_(prefix) {}

  StatLine& kv(const char* key, std::uint64_t v);
  StatLine& kv(const char* key, const char* v);
  StatLine& kv(const char* key, const std::string& v) {
    return kv(key, v.c_str());
  }
  /// Fixed-precision double (config identifiers like theta=0.99).
  StatLine& kv_fixed(const char* key, double v, int precision);

  [[nodiscard]] const std::string& str() const noexcept { return line_; }
  /// Prints the line + '\n' to stdout.
  void print() const;

 private:
  std::string line_;
};

}  // namespace rcua::obs
